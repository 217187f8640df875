(* Unit tests for the application toolkit: arrays, strides, work piles. *)

open Numa_machine
module System = Numa_system.System
module Api = Numa_sim.Api
module W = Numa_apps.Workload
module Region_attr = Numa_vm.Region_attr

let small_config () = Config.ace ~n_cpus:4 ~local_pages_per_cpu:64 ~global_pages:256 ()

let mk () = System.create ~config:(small_config ()) ()

let alloc sys ~words =
  W.alloc_arr sys ~name:"arr" ~sharing:Region_attr.Declared_write_shared ~words ()

let test_arr_geometry () =
  let sys = mk () in
  let a = alloc sys ~words:1000 in
  (* 512 words per 2 KB page -> 2 pages. *)
  Alcotest.(check int) "2 pages" 2 (W.n_pages a);
  Alcotest.(check int) "word 0 on base page" a.W.region.System.base_vpage (W.vpage_of a 0);
  Alcotest.(check int) "word 511 on base page" a.W.region.System.base_vpage
    (W.vpage_of a 511);
  Alcotest.(check int) "word 512 on next page"
    (a.W.region.System.base_vpage + 1)
    (W.vpage_of a 512);
  Alcotest.check_raises "oob" (Invalid_argument "Workload.vpage_of: index out of range")
    (fun () -> ignore (W.vpage_of a 1000))

(* Count batched operations via the trace hook. *)
let count_ops sys f =
  let ops = ref 0 and refs = ref 0 in
  System.set_access_hook sys
    (Some
       (fun e ->
         incr ops;
         refs := !refs + e.System.count));
  ignore (System.spawn sys ~name:"t" (fun ~stack_vpage:_ -> f ()));
  ignore (System.run sys);
  System.set_access_hook sys None;
  (!ops, !refs)

let test_range_batches_per_page () =
  let sys = mk () in
  let a = alloc sys ~words:2048 in
  let ops, refs = count_ops sys (fun () -> W.read_range a ~lo:100 ~n:1000) in
  (* Words 100..1099 touch pages 0,1,2 -> 3 batched ops, 1000 refs. *)
  Alcotest.(check int) "3 ops" 3 ops;
  Alcotest.(check int) "1000 refs" 1000 refs

let test_stride_batches () =
  let sys = mk () in
  let a = alloc sys ~words:4096 in
  (* Stride 512 = one element per page: 8 ops of 1 ref. *)
  let ops, refs = count_ops sys (fun () -> W.read_stride a ~lo:0 ~n:8 ~stride:512) in
  Alcotest.(check int) "8 ops" 8 ops;
  Alcotest.(check int) "8 refs" 8 refs;
  (* Stride 128 = four elements per page. *)
  let sys2 = mk () in
  let b = alloc sys2 ~words:4096 in
  let ops2, refs2 = count_ops sys2 (fun () -> W.read_stride b ~lo:0 ~n:16 ~stride:128) in
  Alcotest.(check int) "4 ops (4 per page)" 4 ops2;
  Alcotest.(check int) "16 refs" 16 refs2

let test_stride_bounds () =
  let sys = mk () in
  let a = alloc sys ~words:512 in
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ ->
         W.read_stride a ~lo:0 ~n:1 ~stride:9999));
  ignore (System.run sys);
  Alcotest.(check bool) "single element always fine" true true;
  Alcotest.check_raises "overrun rejected"
    (Invalid_argument "Workload: stride range out of bounds") (fun () ->
      ignore (W.read_stride a ~lo:0 ~n:3 ~stride:256))

let test_linkage_mix () =
  let sys = mk () in
  let reads = ref 0 and writes = ref 0 in
  System.set_access_hook sys
    (Some
       (fun e ->
         match e.System.kind with
         | Access.Load -> reads := !reads + e.System.count
         | Access.Store -> writes := !writes + e.System.count));
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage ->
         W.linkage ~stack_vpage ~refs:101));
  ignore (System.run sys);
  Alcotest.(check int) "51 fetches" 51 !reads;
  Alcotest.(check int) "50 stores" 50 !writes

let test_workpile_covers_exactly () =
  let sys = mk () in
  let pile = W.make_workpile sys ~name:"pile" ~total:103 ~chunk:10 in
  let covered = Array.make 103 0 in
  for i = 0 to 3 do
    ignore
      (System.spawn sys ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun ~stack_vpage:_ ->
           let rec go () =
             match W.workpile_take pile with
             | None -> ()
             | Some (lo, hi) ->
                 Alcotest.(check bool) "chunk bounded" true (hi - lo + 1 <= 10);
                 for k = lo to hi do
                   covered.(k) <- covered.(k) + 1
                 done;
                 Numa_sim.Api.compute 10_000.;
                 go ()
           in
           go ()))
  done;
  ignore (System.run sys);
  Array.iteri
    (fun i n -> if n <> 1 then Alcotest.failf "unit %d covered %d times" i n)
    covered

let test_static_share_partitions () =
  let total = 100 and nthreads = 7 in
  let seen = Array.make total 0 in
  for tid = 0 to nthreads - 1 do
    let lo, hi = W.static_share ~total ~nthreads ~tid in
    for i = lo to hi - 1 do
      seen.(i) <- seen.(i) + 1
    done
  done;
  Array.iteri (fun i n -> if n <> 1 then Alcotest.failf "index %d covered %d times" i n) seen;
  (* Shares are balanced within one unit. *)
  let sizes =
    List.init nthreads (fun tid ->
        let lo, hi = W.static_share ~total ~nthreads ~tid in
        hi - lo)
  in
  let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
  Alcotest.(check bool) "balanced" true (mx - mn <= 1)

let test_primes_util () =
  Alcotest.(check int) "isqrt 0" 0 (Numa_apps.Primes_util.isqrt 0);
  Alcotest.(check int) "isqrt 15" 3 (Numa_apps.Primes_util.isqrt 15);
  Alcotest.(check int) "isqrt 16" 4 (Numa_apps.Primes_util.isqrt 16);
  Alcotest.(check int) "isqrt 1e8" 10_000 (Numa_apps.Primes_util.isqrt 100_000_000);
  let p100 = Numa_apps.Primes_util.primes_upto 100 in
  Alcotest.(check int) "pi(100)" 25 (Array.length p100);
  Alcotest.(check int) "first prime" 2 p100.(0);
  Alcotest.(check int) "last under 100" 97 p100.(24);
  Alcotest.(check int) "pi(1)" 0 (Array.length (Numa_apps.Primes_util.primes_upto 1))

(* The sieve against trial division for every limit up to 5000, and at the
   10M limit primes3 sieves to. *)
let test_primes_upto () =
  let module P = Numa_apps.Primes_util in
  let is_prime n =
    let rec no_divisor d = d * d > n || (n mod d <> 0 && no_divisor (d + 1)) in
    n >= 2 && no_divisor 2
  in
  let expect = ref [] in
  for n = 0 to 5000 do
    if is_prime n then expect := n :: !expect;
    if P.primes_upto n <> Array.of_list (List.rev !expect) then
      Alcotest.failf "primes_upto %d differs from trial division" n
  done;
  let big = P.primes_upto 10_000_000 in
  Alcotest.(check int) "pi(10^7)" 664_579 (Array.length big);
  Alcotest.(check int) "last prime under 10^7" 9_999_991 big.(Array.length big - 1)

(* The segmented count against the whole sieve's primes bucketed by
   segment: at primes3's smallest limit, at 65,537 (a prime one past
   256^2) and 10^6 + 1 (one past 1000^2), and at 10^7, for segments of 7
   bits, 1,024 bits and 16,384 bits (ACE's 512-word page). *)
let test_primes_per_segment () =
  let module P = Numa_apps.Primes_util in
  List.iter
    (fun limit ->
      let primes = P.primes_upto limit in
      List.iter
        (fun bits ->
          let expect = Array.make ((((limit - 1) / 2) + bits - 1) / bits) 0 in
          Array.iter
            (fun q ->
              if q >= 3 then
                let s = (q - 3) / 2 / bits in
                expect.(s) <- expect.(s) + 1)
            primes;
          if P.primes_per_segment ~limit ~bits <> expect then
            Alcotest.failf "primes_per_segment ~limit:%d ~bits:%d differs" limit bits)
        [ 7; 1_024; 16_384 ])
    [ 20_000; 65_537; 1_000_001; 10_000_000 ]

let test_odd_multiples_count () =
  let module P = Numa_apps.Primes_util in
  (* Bits 0..n stand for odd numbers 3,5,7,...; p = 3 marks 9,15,21,... *)
  let count = P.count_odd_multiples_in_bit_range ~p:3 ~lo_bit:0 ~hi_bit:48 ~limit:99 in
  (* odd multiples of 3 from 9 to 99: 9,15,...,99 -> 16. *)
  Alcotest.(check int) "3 marks up to 99" 16 count;
  (* Consistency: summing page-sized sub-ranges equals the full range. *)
  let full = P.count_odd_multiples_in_bit_range ~p:7 ~lo_bit:0 ~hi_bit:499 ~limit:1001 in
  let parts =
    List.init 5 (fun i ->
        P.count_odd_multiples_in_bit_range ~p:7 ~lo_bit:(i * 100)
          ~hi_bit:((i * 100) + 99) ~limit:1001)
  in
  Alcotest.(check int) "partition sums" full (List.fold_left ( + ) 0 parts)

let suite =
  [
    Alcotest.test_case "array geometry" `Quick test_arr_geometry;
    Alcotest.test_case "range batches per page" `Quick test_range_batches_per_page;
    Alcotest.test_case "stride batches" `Quick test_stride_batches;
    Alcotest.test_case "stride bounds" `Quick test_stride_bounds;
    Alcotest.test_case "linkage read/write mix" `Quick test_linkage_mix;
    Alcotest.test_case "workpile covers exactly once" `Quick test_workpile_covers_exactly;
    Alcotest.test_case "static share partitions" `Quick test_static_share_partitions;
    Alcotest.test_case "primes utilities" `Quick test_primes_util;
    Alcotest.test_case "sieve matches trial division" `Quick test_primes_upto;
    Alcotest.test_case "segmented prime counts" `Quick test_primes_per_segment;
    Alcotest.test_case "odd-multiple counting" `Quick test_odd_multiples_count;
  ]
