(* Tests for the benchmark's own logic: order statistics, the pair-win
   rule, the bound and "unresolved" verdicts, and that every metric and
   workload BENCHMARK.json names is produced and printed with its unit. *)

open Numa_observatory

let close = Alcotest.float 1e-9

let test_quartiles () =
  let s = Stats.summarize [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check close "odd median" 3. s.Stats.median;
  Alcotest.check close "odd q1" 1.5 s.Stats.q1;
  Alcotest.check close "odd q3" 4.5 s.Stats.q3;
  let s = Stats.summarize [ 4.; 1.; 3.; 2. ] in
  Alcotest.check close "even median" 2.5 s.Stats.median;
  (* statistics.quantiles([1, 2, 3, 4], n=4) = [1.25, 2.5, 3.75] *)
  Alcotest.check close "even q1" 1.25 s.Stats.q1;
  Alcotest.check close "even q3" 3.75 s.Stats.q3;
  let s = Stats.summarize [ 7. ] in
  Alcotest.check close "single sample" 0. (Stats.iqr s);
  (* statistics.quantiles([3, 4, 4, 5], n=4) = [3.25, 4.0, 4.75] *)
  Alcotest.check close "spread is iqr over median" 0.375
    (Stats.spread (Stats.summarize [ 3.; 4.; 4.; 5. ]))

let ten x = List.init 10 (fun _ -> x)

let test_pair_wins () =
  let parent = ten 1. in
  let nine = List.init 10 (fun i -> if i = 0 then 1. else 2.) in
  Alcotest.(check (pair int int)) "one tie" (9, 1) (Stats.pair_wins Stats.Higher ~parent ~change:nine);
  Alcotest.(check (pair int int))
    "lower is better" (0, 1)
    (Stats.pair_wins Stats.Lower ~parent ~change:nine);
  let verdict change = Stats.sampled_verdict Stats.Higher ~bound:0.1 ~parent ~change in
  Alcotest.(check string) "9 of 10 is a gain" "gain" (Stats.verdict_to_string (verdict nine));
  let eight = List.init 10 (fun i -> if i < 2 then 1. else 2.) in
  Alcotest.(check bool) "8 of 10 is not" true (verdict eight <> Stats.Gain);
  Alcotest.(check string) "all ties" "same" (Stats.verdict_to_string (verdict parent));
  (* Nine wins by a margin inside the parent's own spread are no gain. *)
  let parent = [ 90.; 95.; 100.; 105.; 110.; 90.; 95.; 100.; 105.; 110. ] in
  let change = List.map (fun x -> x +. 1.) parent in
  Alcotest.(check bool)
    "margin inside parent IQR" true
    (Stats.sampled_verdict Stats.Higher ~bound:0.25 ~parent ~change <> Stats.Gain)

let test_bounds () =
  let parent = [ 100.; 101.; 99.; 100.; 100.5; 99.5; 100.; 101.; 99.; 100. ] in
  let scaled k = List.map (fun x -> x *. k) parent in
  let verdict ?(parent = parent) change =
    Stats.verdict_to_string (Stats.sampled_verdict Stats.Lower ~bound:0.1 ~parent ~change)
  in
  Alcotest.(check string) "20% slower regresses" "regressed" (verdict (scaled 1.2));
  Alcotest.(check string) "5% slower is within the bound" "same" (verdict (scaled 1.05));
  let wide = [ 50.; 150.; 60.; 140.; 100.; 70.; 130.; 80.; 120.; 100. ] in
  Alcotest.(check string) "spread above the bound" "unresolved" (verdict ~parent:wide (scaled 1.05));
  (* Too wide to call, too small a margin for a gain, but every change
     run beats every parent run: not unresolved. *)
  let bimodal = List.init 10 (fun i -> if i mod 2 = 0 then 100. else 300.) in
  Alcotest.(check string) "every change run better" "same" (verdict ~parent:bimodal (ten 99.));
  Alcotest.(check string) "exact equal" "same" (Stats.verdict_to_string (Stats.exact_verdict ~parent:1. ~change:1.));
  Alcotest.(check string)
    "exact differs" "DIFFERS"
    (Stats.verdict_to_string (Stats.exact_verdict ~parent:1. ~change:1.0000001))

(* --- schema ----------------------------------------------------------- *)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let line_of text name =
  List.find_opt
    (fun l -> List.mem name (String.split_on_char ' ' l))
    (String.split_on_char '\n' text)

let span id name parent a b =
  { Spans.id; name; parent; start_ns = Int64.of_int a; stop_ns = Int64.of_int b }

let synthetic_outcome =
  {
    Workload.digest = "d";
    events = 1000;
    spans =
      [
        span 0 "rep" (-1) 0 1_000_000;
        span 1 "sys:x" 0 10 900_000;
        span 2 "create" 1 10 100;
        span 3 "app_setup" 1 100 200;
        span 4 "run" 1 200 800_000;
        span 5 "report" 1 800_000 850_000;
        span 6 "trace_save" 1 850_000 900_000;
      ];
    alloc_words = 5000.;
    peak_rss_mb = 100.;
    problems = [];
    gamma_err = Some 0.01;
    counts = List.map (fun c -> (c, 10.)) Workload.count_names;
  }

let test_schema () =
  let schema =
    match Schema.load "../BENCHMARK.json" with Ok s -> s | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string))
    "workloads" (Workload.names ())
    (List.map fst schema.Schema.workloads);
  let run =
    {
      Metrics.workload = Workload.observed;
      seed = 42L;
      reps = List.map (fun slowdown -> { Metrics.outcome = synthetic_outcome; slowdown }) [ 1.; 1.1 ];
      attempted = 2;
      failed = 0;
      problems = [];
      drift = false;
    }
  in
  let check_printed what text (metrics : Schema.metric list) catalog =
    List.iter
      (fun (m : Schema.metric) ->
        (match List.assoc_opt m.Schema.name catalog with
        | Some unit -> Alcotest.(check string) (m.Schema.name ^ " unit") m.Schema.unit unit
        | None -> Alcotest.failf "%s: %s is not in the catalog" what m.Schema.name);
        match line_of text m.Schema.name with
        | Some l when contains l (" " ^ m.Schema.unit ^ " ") -> ()
        | Some l -> Alcotest.failf "%s: %S lacks unit %s" what l m.Schema.unit
        | None -> Alcotest.failf "%s does not print %s" what m.Schema.name)
      metrics
  in
  let buf = Buffer.create 1024 in
  Metrics.print_run buf run;
  check_printed "run" (Buffer.contents buf) schema.Schema.end_to_end
    (List.map (fun (m : Metrics.e2e) -> (m.name, m.unit)) Metrics.end_to_end);
  let trace =
    {
      Metrics.untraced = run;
      traced = synthetic_outcome;
      micro = List.map (fun (l : Metrics.layer) -> (l.name, 1.)) Metrics.per_layer;
    }
  in
  let buf = Buffer.create 1024 in
  Metrics.print_trace buf trace;
  check_printed "trace" (Buffer.contents buf) schema.Schema.per_layer
    (List.map (fun (l : Metrics.layer) -> (l.name, l.unit)) Metrics.per_layer);
  (* The result line carries every named metric, all of them numbers. *)
  let line =
    Metrics.result_line ~correct:true ~attempted:2 ~failed:0 schema.Schema.per_layer
      (Metrics.layer_values trace)
  in
  match Numa_obs.Json.parse line with
  | Ok j -> (
      match Numa_obs.Json.member j "metrics" with
      | Some (Numa_obs.Json.Obj ms) ->
          Alcotest.(check int) "per-layer metrics" (List.length schema.Schema.per_layer) (List.length ms)
      | _ -> Alcotest.fail "no metrics object")
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "observatory"
    [
      ( "stats",
        [
          Alcotest.test_case "median and quartiles, odd and even n" `Quick test_quartiles;
          Alcotest.test_case "9/10 pair-win rule with ties" `Quick test_pair_wins;
          Alcotest.test_case "bounds and unresolved" `Quick test_bounds;
        ] );
      ("schema", [ Alcotest.test_case "BENCHMARK.json metrics are printed with units" `Quick test_schema ]);
    ]
