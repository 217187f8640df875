(* Unit and property tests for the util library. *)

module Prng = Numa_util.Prng
module Histogram = Numa_util.Histogram
module Text_table = Numa_util.Text_table

(* --- prng --------------------------------------------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_prng_deterministic () =
  let a = Prng.create ~seed:123L and b = Prng.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_bounds () =
  let t = Prng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in t ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in inclusive range" true (v >= 5 && v <= 9)
  done;
  for _ = 1 to 100 do
    let f = Prng.float t 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.5)
  done

let test_prng_split_independent () =
  let parent = Prng.create ~seed:99L in
  let child = Prng.split parent in
  (* The two streams should not be identical. *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Prng.next_int64 parent = Prng.next_int64 child then incr same
  done;
  Alcotest.(check bool) "split stream differs" true (!same < 20)

let test_prng_copy () =
  let a = Prng.create ~seed:5L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

(* The streams themselves, pinned: the tests above compare generators
   with each other, so a change to the output function or to how the
   state is kept would pass them. Seed 0's first value is SplitMix64's
   published reference output. *)
let test_prng_pinned_streams () =
  let first4 t = List.init 4 (fun _ -> Prng.next_int64 t) in
  Alcotest.(check (list int64)) "seed 0"
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x6C45D188009454FL; 0xF88BB8A8724C81ECL ]
    (first4 (Prng.create ~seed:0L));
  let parent = Prng.create ~seed:42L in
  let child = Prng.split parent in
  Alcotest.(check (list int64)) "split child of seed 42"
    [ 0x57E1FABA65107204L; 0xF4ABD143FEB24055L; 0x7C816738C12903B2L; 0x113E5DEC6F8FD8A8L ]
    (first4 child);
  Alcotest.(check (list int64)) "seed 42"
    [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L; 0x581CE1FF0E4AE394L ]
    (first4 (Prng.create ~seed:42L));
  Alcotest.(check (list int64)) "seed 42 after the split"
    [ 0x28EFE333B266F103L; 0x47526757130F9F52L; 0x581CE1FF0E4AE394L; 0x9BC585A244823F2L ]
    (first4 parent)

(* The state is updated in place: a draw boxes no [int64]. Like the
   fault-path cases, this holds for the workspace's profile, which
   inlines across modules. *)
let test_prng_draws_allocate_nothing () =
  let t = Prng.create ~seed:3L and z = Numa_util.Dist.zipf ~n:64 ~theta:0.9 in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          ignore (Prng.int t 10);
          ignore (Numa_util.Dist.zipf_draw z t)
        done)
  in
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:11L in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle_in_place t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_prng_invalid () =
  let t = Prng.create ~seed:1L in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose t [||]))

(* --- histogram ---------------------------------------------------------------- *)

let test_histogram () =
  let h = Histogram.create () in
  Histogram.add h 3;
  Histogram.add h 3;
  Histogram.add_many h 7 5;
  Alcotest.(check int) "count 3" 2 (Histogram.count h 3);
  Alcotest.(check int) "count 7" 5 (Histogram.count h 7);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 99);
  Alcotest.(check int) "total" 7 (Histogram.total h);
  Alcotest.(check (list int)) "keys sorted" [ 3; 7 ] (Histogram.keys h);
  Alcotest.(check (list (pair int int))) "sorted list" [ (3, 2); (7, 5) ]
    (Histogram.to_sorted_list h)

let test_histogram_mean_percentile () =
  let h = Histogram.create () in
  (* Totality on the empty histogram: every percentile (including the
     boundary ranks) and the mean are defined values, never exceptions. *)
  List.iter
    (fun p -> Alcotest.(check int) "empty percentile" 0 (Histogram.percentile h p))
    [ 0.; 50.; 100. ];
  Alcotest.(check int) "empty max key" 0 (Histogram.max_key h);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Histogram.mean h);
  Alcotest.(check int) "empty total" 0 (Histogram.total h);
  Histogram.add_many h 1 50;
  Histogram.add_many h 2 30;
  Histogram.add_many h 10 19;
  Histogram.add h 100;
  (* 100 samples: 50 ones, 30 twos, 19 tens, 1 hundred. *)
  Alcotest.(check int) "p0 is smallest key" 1 (Histogram.percentile h 0.);
  Alcotest.(check int) "p50" 1 (Histogram.percentile h 50.);
  Alcotest.(check int) "p80" 2 (Histogram.percentile h 80.);
  Alcotest.(check int) "p99" 10 (Histogram.percentile h 99.);
  Alcotest.(check int) "p100 is largest key" 100 (Histogram.percentile h 100.);
  Alcotest.(check int) "max key" 100 (Histogram.max_key h);
  let expected_mean =
    ((1. *. 50.) +. (2. *. 30.) +. (10. *. 19.) +. 100.) /. 100.
  in
  Alcotest.(check (float 1e-9)) "mean" expected_mean (Histogram.mean h)

let test_histogram_percentile_invalid () =
  let h = Histogram.create () in
  Histogram.add h 1;
  Alcotest.check_raises "p > 100"
    (Invalid_argument "Histogram.percentile: p must be in [0,100]") (fun () ->
      ignore (Histogram.percentile h 100.1));
  Alcotest.check_raises "p < 0"
    (Invalid_argument "Histogram.percentile: p must be in [0,100]") (fun () ->
      ignore (Histogram.percentile h (-1.)));
  Alcotest.check_raises "p = nan"
    (Invalid_argument "Histogram.percentile: p must be in [0,100]") (fun () ->
      ignore (Histogram.percentile h Float.nan))

let test_histogram_percentile_single_key () =
  let h = Histogram.create () in
  Histogram.add_many h 4 1000;
  List.iter
    (fun p -> Alcotest.(check int) "all percentiles hit the one key" 4 (Histogram.percentile h p))
    [ 0.; 1.; 50.; 99.; 100. ];
  Alcotest.(check (float 1e-9)) "mean of constant" 4. (Histogram.mean h)

(* Adding to a key whose page of 64 keys exists allocates nothing, nor
   does asking for the count of a key whose page does not: [count] makes
   no page. Pages here: -1 (keys -64 .. -1), 0 (0 .. 63) and 15 (960 ..
   1023). *)
let test_histogram_no_alloc () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ -64; 5; 1000 ];
  let words =
    minor_words (fun () ->
        for k = -64 to 63 do
          Histogram.add h k;
          Histogram.add_many h k 2
        done;
        Histogram.add h 960;
        Histogram.add_many h 1023 0;
        for k = 64 to 959 do
          ignore (Histogram.count h k)
        done;
        ignore (Histogram.count h min_int);
        ignore (Histogram.count h max_int))
  in
  Alcotest.(check (float 0.)) "minor words" 0. words;
  Alcotest.(check int) "total" 388 (Histogram.total h);
  Alcotest.(check int) "count 5" 4 (Histogram.count h 5);
  Alcotest.(check int) "count 64" 0 (Histogram.count h 64);
  Alcotest.(check int) "max key" 1000 (Histogram.max_key h)

(* A map-based histogram as a model: the same random ops drive both,
   compared after every step. *)
module Int_map = Map.Make (Int)

let model_percentile m total p =
  if total = 0 then 0
  else
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int total))) in
    let rec go cum = function
      | [] -> 0
      | (k, n) :: rest -> if cum + n >= rank then k else go (cum + n) rest
    in
    go 0 (Int_map.bindings m)

let model_mean m total =
  if total = 0 then 0.
  else
    Int_map.fold (fun k n acc -> acc +. (float_of_int k *. float_of_int n)) m 0.
    /. float_of_int total

(* Drive a histogram and the model with [ops] (key, count, percentile),
   comparing every query every [every] ops and after the last. *)
let histogram_agrees ~every ops =
  let h = Histogram.create () in
  let model = ref Int_map.empty and total = ref 0 and step = ref 0 in
  let last = List.length ops in
  List.for_all
    (fun (k, n, p) ->
      incr step;
      if n = 1 then Histogram.add h k else Histogram.add_many h k n;
      if n > 0 then begin
        model := Int_map.update k (fun c -> Some (Option.value c ~default:0 + n)) !model;
        total := !total + n
      end;
      let m = !model in
      Histogram.count h k = Option.value (Int_map.find_opt k m) ~default:0
      && Histogram.total h = !total
      && (!step mod every <> 0 && !step <> last
         || Histogram.keys h = List.map fst (Int_map.bindings m)
            && Histogram.to_sorted_list h = Int_map.bindings m
            && Histogram.max_key h
               = (match Int_map.max_binding_opt m with Some (k, _) -> k | None -> 0)
            && Histogram.percentile h p = model_percentile m !total p
            && Histogram.percentile h 100. = model_percentile m !total 100.
            && Int64.equal
                 (Int64.bits_of_float (Histogram.mean h))
                 (Int64.bits_of_float (model_mean m !total))))
    ops

let histogram_count = QCheck.Gen.(frequency [ (3, return 1); (1, int_range 0 5) ])
let print_histogram_ops = QCheck.Print.(list (triple int int float))

let prop_histogram_model =
  let key =
    QCheck.Gen.(
      oneof
        [
          int_range (-3) 3;
          int_range 900 1100;
          map (fun k -> k * 64) (int_range (-50) 50);
          oneofl [ min_int; max_int; 1 lsl 40; -(1 lsl 40); 109_000_000 ];
          int;
        ])
  in
  let op = QCheck.Gen.(triple key histogram_count (float_range 0. 100.)) in
  QCheck.Test.make ~name:"histogram agrees with a map model" ~count:300
    (QCheck.make ~print:print_histogram_ops QCheck.Gen.(list_size (int_range 0 600) op))
    (histogram_agrees ~every:1)

(* The sizes serve's latency histograms reach: at least 50,000 distinct
   keys, mostly a dense cluster, plus negatives and keys near both ends of
   the int range, shuffled into table order and checked every 10,000 ops. *)
let prop_histogram_model_large =
  let distinct =
    List.init 36_000 Fun.id
    @ List.init 9_000 (fun i -> -1 - (7 * i))
    @ List.init 2_500 (fun i -> max_int - i)
    @ List.init 2_500 (fun i -> min_int + (3 * i))
  in
  let ops =
    QCheck.Gen.(
      list_size (int_range 0 2_000) (int_range (-100) 40_000) >>= fun repeats ->
      shuffle_l (distinct @ repeats) >>= fun keys ->
      flatten_l
        (List.map (fun k -> triple (return k) histogram_count (float_range 0. 100.)) keys))
  in
  QCheck.Test.make ~name:"histogram agrees with a map model on 50,000 distinct keys" ~count:3
    (QCheck.make ~print:print_histogram_ops ops)
    (histogram_agrees ~every:10_000)

(* --- text table ----------------------------------------------------------------- *)

let test_text_table_render () =
  let t =
    Text_table.create ~columns:[ ("name", Text_table.Left); ("value", Text_table.Right) ]
  in
  Text_table.add_row t [ "x"; "10" ];
  Text_table.add_rule t;
  Text_table.add_row t [ "longer"; "3" ];
  let s = Text_table.render t in
  (* header, header rule, row, explicit rule, row *)
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "5 lines" 5 (List.length lines);
  (match lines with
  | header :: _ -> Alcotest.(check bool) "header first" true (String.length header > 0)
  | [] -> Alcotest.fail "empty render");
  Alcotest.(check bool) "contains both rows" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> l = "x          10"
                                                            || String.length l > 0))

let test_text_table_arity () =
  let t = Text_table.create ~columns:[ ("a", Text_table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Text_table.add_row: arity mismatch")
    (fun () -> Text_table.add_row t [ "x"; "y" ])

let test_text_table_cells () =
  Alcotest.(check string) "f1" "1.5" (Text_table.cell_f1 1.54);
  Alcotest.(check string) "f2" "0.94" (Text_table.cell_f2 0.938);
  Alcotest.(check string) "pct" "24.9%" (Text_table.cell_pct 24.91);
  Alcotest.(check string) "int" "42" (Text_table.cell_int 42)

let test_text_table_of_rows () =
  let rows = [ ("x", 10); ("longer", 3) ] in
  let t = Text_table.create ~columns:[ ("name", Text_table.Left); ("n", Text_table.Right) ] in
  List.iter (fun (name, n) -> Text_table.add_row t [ name; string_of_int n ]) rows;
  Alcotest.(check string) "same bytes as create/add_row/render" (Text_table.render t)
    (Text_table.of_rows rows
       ~columns:
         [ ("name", Text_table.Left, fst); ("n", Text_table.Right, fun (_, n) -> string_of_int n) ])

let qcheck t = QCheck_alcotest.to_alcotest t

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng pinned streams" `Quick test_prng_pinned_streams;
    Alcotest.test_case "prng draws allocate nothing" `Quick test_prng_draws_allocate_nothing;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng invalid args" `Quick test_prng_invalid;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram mean/percentile" `Quick test_histogram_mean_percentile;
    Alcotest.test_case "histogram percentile bounds" `Quick test_histogram_percentile_invalid;
    Alcotest.test_case "histogram percentile single key" `Quick
      test_histogram_percentile_single_key;
    Alcotest.test_case "histogram adds to a known page without allocating" `Quick
      test_histogram_no_alloc;
    Alcotest.test_case "text table render" `Quick test_text_table_render;
    Alcotest.test_case "text table arity" `Quick test_text_table_arity;
    Alcotest.test_case "text table cells" `Quick test_text_table_cells;
    Alcotest.test_case "text table of_rows" `Quick test_text_table_of_rows;
    qcheck prop_histogram_model;
    qcheck prop_histogram_model_large;
  ]
