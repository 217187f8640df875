(* Second-pass coverage: focused cases for behaviours the main suites do
   not pin down — engine batching/slicing details, report accounting,
   per-region bookkeeping, policy introspection, bus integration, stats. *)

open Numa_machine
module System = Numa_system.System
module Report = Numa_system.Report
module Engine = Numa_sim.Engine
module Api = Numa_sim.Api
module Memory_iface = Numa_sim.Memory_iface
module Region_attr = Numa_vm.Region_attr
module Policy = Numa_core.Policy
module W = Numa_apps.Workload

(* --- engine details ------------------------------------------------------- *)

let flat_engine ?(n_cpus = 4) ?(engine_tweak = Fun.id) () =
  let machine = Config.ace ~n_cpus () in
  Engine.create
    (engine_tweak (Engine.default_config ~n_cpus))
    ~memory:(Memory_iface.flat machine) ~scheduler:Engine.Affinity

let test_engine_large_batch_spans_chunks () =
  (* A 10_000-reference batch with 1024-reference chunks: the accounting
     must be exact regardless of the chunking. *)
  let e = flat_engine ~engine_tweak:(fun c -> { c with Engine.chunk_refs = 1024 }) () in
  ignore (Engine.spawn e ~cpu:0 ~name:"t" (fun () -> Api.read ~count:10_000 3));
  Engine.run e;
  Alcotest.(check (float 1.)) "exact batch accounting" (10_000. *. 650.)
    (Engine.user_ns e ~cpu:0)

let test_engine_compute_slicing_exact () =
  (* Computation larger than the slice must still total exactly. *)
  let e =
    flat_engine ~engine_tweak:(fun c -> { c with Engine.compute_slice_ns = 1e5 }) ()
  in
  ignore (Engine.spawn e ~cpu:1 ~name:"t" (fun () -> Api.compute 1.23e6));
  Engine.run e;
  Alcotest.(check (float 1e-3)) "sliced compute exact" 1.23e6 (Engine.user_ns e ~cpu:1)

let test_engine_write_value_persists_across_chunks () =
  let e = flat_engine ~engine_tweak:(fun c -> { c with Engine.chunk_refs = 16 }) () in
  let got = ref 0 in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"t" (fun () ->
         Api.write ~count:100 ~value:77 5;
         got := Api.read_value 5));
  Engine.run e;
  Alcotest.(check int) "value survives chunked write" 77 !got

let test_engine_barrier_single_party () =
  let e = flat_engine () in
  let b = Engine.make_barrier e ~vpage:0 ~parties:1 in
  let passed = ref false in
  ignore
    (Engine.spawn e ~name:"solo" (fun () ->
         Api.barrier b;
         passed := true));
  Engine.run e;
  Alcotest.(check bool) "single-party barrier releases immediately" true !passed

let test_engine_lock_handoff_deterministic () =
  (* Spin locks are not FIFO (the winner is whoever's poll lands first
     after the release), but the handoff must be reproducible run to run. *)
  let handoff_order () =
    let e = flat_engine () in
    let lock = Engine.make_lock e ~vpage:0 in
    let order = ref [] in
    ignore
      (Engine.spawn e ~cpu:0 ~name:"holder" (fun () ->
           Api.lock lock;
           Api.compute 1e6;
           Api.unlock lock));
    List.iter
      (fun (cpu, name, delay) ->
        ignore
          (Engine.spawn e ~cpu ~name (fun () ->
               Api.compute delay;
               Api.lock lock;
               order := name :: !order;
               Api.unlock lock)))
      [ (1, "early", 1e4); (2, "late", 5e5) ];
    Engine.run e;
    List.rev !order
  in
  let a = handoff_order () in
  Alcotest.(check int) "both acquired" 2 (List.length a);
  Alcotest.(check (list string)) "reproducible handoff" a (handoff_order ())

let test_engine_syscall_without_stack_page () =
  (* touch_stack with no stack page registered must be harmless. *)
  let e = flat_engine ~engine_tweak:(fun c -> { c with Engine.unix_master = true }) () in
  ignore
    (Engine.spawn e ~cpu:1 ~name:"t" (fun () ->
         Api.syscall ~touch_stack:true ~service_ns:1e6 ()));
  Engine.run e;
  Alcotest.(check (float 1.)) "service on master" 1e6 (Engine.system_ns e ~cpu:0)

let test_engine_thread_count () =
  let e = flat_engine () in
  for i = 0 to 4 do
    ignore (Engine.spawn e ~name:(string_of_int i) (fun () -> Api.compute 1e3))
  done;
  Engine.run e;
  Alcotest.(check int) "n_threads" 5 (Engine.n_threads e)

(* --- system accounting ------------------------------------------------------ *)

let small_config ?(n_cpus = 4) () =
  Config.ace ~n_cpus ~local_pages_per_cpu:64 ~global_pages:256 ()

let test_per_region_counts_are_exact () =
  let sys = System.create ~config:(small_config ()) () in
  let a =
    System.alloc_region sys ~name:"A" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:1 ()
  in
  let b =
    System.alloc_region sys ~name:"B" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:1 ()
  in
  ignore
    (System.spawn sys ~cpu:0 ~name:"t" (fun ~stack_vpage:_ ->
         Api.read ~count:10 a.System.base_vpage;
         Api.write ~count:3 a.System.base_vpage;
         Api.write ~count:7 b.System.base_vpage));
  let r = System.run sys in
  let counts name = List.assoc name r.Report.per_region in
  Alcotest.(check int) "A reads" 10 (counts "A").Report.local_reads;
  Alcotest.(check int) "A writes" 3 (counts "A").Report.local_writes;
  Alcotest.(check int) "B writes" 7 (counts "B").Report.local_writes;
  Alcotest.(check int) "B reads" 0 (counts "B").Report.local_reads;
  (* Totals include the regions plus nothing else (no lock/barrier here;
     the thread never touched its stack). *)
  Alcotest.(check int) "total refs" 20 (Report.total_refs r.Report.refs_all)

let test_report_summary_and_counts_helpers () =
  let c = Report.zero_counts () in
  Alcotest.(check int) "empty total" 0 (Report.total_refs c);
  Alcotest.(check (float 0.)) "empty local fraction" 0. (Report.local_fraction c);
  c.Report.local_reads <- 3;
  c.Report.global_writes <- 1;
  Alcotest.(check (float 1e-9)) "local fraction" 0.75 (Report.local_fraction c);
  let sys = System.create ~config:(small_config ()) () in
  let a =
    System.alloc_region sys ~name:"A" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:1 ()
  in
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ -> Api.write a.System.base_vpage));
  let r = System.run sys in
  let line = Report.summary_line r in
  Alcotest.(check bool) "summary mentions policy" true
    (String.length line > 0
    &&
    let rec has i =
      i + 10 <= String.length line && (String.sub line i 10 = "policy=mov" || has (i + 1))
    in
    has 0)

let test_access_hook_detach () =
  let sys = System.create ~config:(small_config ()) () in
  let a =
    System.alloc_region sys ~name:"A" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:1 ()
  in
  let seen = ref 0 in
  System.set_access_hook sys (Some (fun _ -> incr seen));
  System.set_access_hook sys None;
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ ->
         Api.write ~count:5 a.System.base_vpage));
  ignore (System.run sys);
  Alcotest.(check int) "detached hook sees nothing" 0 !seen

let test_policy_spec_names () =
  Alcotest.(check string) "move-limit" "move-limit(4)"
    (System.policy_spec_name (System.Move_limit { threshold = 4 }));
  Alcotest.(check string) "all-global" "all-global" (System.policy_spec_name System.All_global);
  Alcotest.(check string) "never-pin" "never-pin" (System.policy_spec_name System.Never_pin);
  Alcotest.(check string) "random" "random(0.25)"
    (System.policy_spec_name (System.Random_assign { p_global = 0.25; seed = 1L }));
  Alcotest.(check string) "reconsider" "reconsider(3)"
    (System.policy_spec_name (System.Reconsider { threshold = 3; window_ns = 1e6 }))

let test_bus_integration_slows_global_refs () =
  (* Two variants of the same global-heavy run: with a tiny bus the user
     time must be strictly larger and the delay recorded in the report. *)
  let run bus_words_per_ns =
    let config = { (small_config ~n_cpus:4 ()) with Config.bus_words_per_ns } in
    let sys = System.create ~policy:System.All_global ~config () in
    let a =
      System.alloc_region sys ~name:"hot" ~kind:Region_attr.Data
        ~sharing:Region_attr.Declared_write_shared ~pages:1 ()
    in
    for cpu = 0 to 3 do
      ignore
        (System.spawn sys ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun ~stack_vpage:_ ->
             Api.read ~count:5000 a.System.base_vpage))
    done;
    System.run sys
  in
  let free = run 0. and congested = run 0.0005 (* 2 MB/s: far under demand *) in
  Alcotest.(check (float 0.)) "no delay without bus model" 0. free.Report.bus_delay_ns;
  Alcotest.(check bool) "delay recorded" true (congested.Report.bus_delay_ns > 0.);
  Alcotest.(check bool) "congestion slows the run" true
    (congested.Report.total_user_ns > free.Report.total_user_ns)

(* --- stats / policy introspection ------------------------------------------- *)

let test_numa_stats_assoc_and_histogram () =
  let stats = Numa_core.Numa_stats.create () in
  stats.Numa_core.Numa_stats.moves <- 7;
  Numa_core.Numa_stats.record_final_moves stats 3;
  Numa_core.Numa_stats.record_final_moves stats 3;
  Numa_core.Numa_stats.record_final_moves stats 0;
  Alcotest.(check int) "histogram count" 2
    (Numa_util.Histogram.count stats.Numa_core.Numa_stats.move_histogram 3);
  let assoc = Numa_core.Numa_stats.to_assoc stats in
  Alcotest.(check (option string)) "moves in assoc" (Some "7")
    (List.assoc_opt "page moves" assoc)

let test_policy_info_strings () =
  let p = Policy.move_limit ~threshold:9 ~n_pages:4 () in
  Alcotest.(check (option string)) "threshold surfaced" (Some "9")
    (List.assoc_opt "threshold" (p.Policy.info ()));
  let r =
    Policy.reconsider ~threshold:2 ~window_ns:5e6 ~now:(fun () -> 0.) ~n_pages:4 ()
  in
  Alcotest.(check bool) "reconsider exposes window" true
    (List.mem_assoc "window_ns" (r.Policy.info ()));
  (* The three policies that pin on a move count, driven through one
     script: pin page 2 from cpu 0, free it, pin it again. After each step
     every introspection entry point must agree. *)
  let topo = Config.topology (Config.butterfly ~n_cpus:4 ()) in
  let check_step (p : Policy.t) step ~pinned ~info ~explain ~hints =
    let msg what = Printf.sprintf "%s %s: %s" p.Policy.name step what in
    Alcotest.(check (list (pair string string))) (msg "info") info (p.Policy.info ());
    Alcotest.(check string) (msg "explain") explain (p.Policy.explain ~lpage:2);
    Alcotest.(check int) (msg "n_pinned") (Bool.to_int pinned) (p.Policy.n_pinned ());
    Alcotest.(check bool) (msg "is_pinned") pinned (p.Policy.is_pinned ~lpage:2);
    Alcotest.(check (list (pair int int))) (msg "hints") hints (p.Policy.migrate_hints ())
  in
  let pin (p : Policy.t) =
    p.Policy.note (Policy.Page_moved { lpage = 2 });
    p.Policy.note (Policy.Page_moved { lpage = 2 });
    Alcotest.(check bool) (p.Policy.name ^ " pins") true
      (p.Policy.decide ~lpage:2 ~cpu:0 ~access:Access.Store
      = Numa_core.Protocol.Place_global)
  in
  List.iter
    (fun (p, extra, pinned_why, local_why, hint) ->
      let info ~pins ~hinted =
        [ ("threshold", "1"); ("pinned pages", string_of_int pins) ] @ extra hinted
      in
      check_step p "fresh" ~pinned:false ~info:(info ~pins:0 ~hinted:0) ~explain:local_why
        ~hints:[];
      pin p;
      check_step p "pinned" ~pinned:true ~info:(info ~pins:1 ~hinted:1) ~explain:pinned_why
        ~hints:hint;
      p.Policy.note (Policy.Page_freed { lpage = 2 });
      check_step p "freed" ~pinned:false ~info:(info ~pins:0 ~hinted:1) ~explain:local_why
        ~hints:[];
      pin p;
      check_step p "pinned again" ~pinned:true ~info:(info ~pins:1 ~hinted:2)
        ~explain:pinned_why ~hints:hint)
    [
      ( Policy.move_limit ~threshold:1 ~n_pages:16 (),
        (fun _ -> []),
        "move-limit: page moved 2 times > threshold 1; pinned GLOBAL",
        "move-limit: moves 0 <= threshold 1; cache LOCAL",
        [] );
      ( Policy.bandwidth_aware ~threshold:1 ~topo ~pressure:(fun ~node:_ -> 0.) ~n_pages:16 (),
        (fun _ -> [ ("cheap-global decisions", "0") ]),
        "bandwidth-aware: page moved 2 times > threshold 1; pinned GLOBAL",
        "bandwidth-aware: moves 0 <= threshold 1; next fault compares shared-home \
         latency+link bandwidth against local latency+frame pressure",
        [] );
      ( Policy.migrate_threads ~threshold:1 ~topo ~n_pages:16 (),
        (fun hinted -> [ ("migration hints issued", string_of_int hinted) ]),
        "migrate-threads: page moved 2 times > threshold 1; pinned GLOBAL (with a thread \
         re-homing hint toward its shared-level home)",
        "migrate-threads: moves 0 <= threshold 1; cache LOCAL",
        [ (0, 2) ] );
    ]

(* --- workload odds and ends ----------------------------------------------------- *)

let test_workpile_single_chunk_covers_all () =
  let sys = System.create ~config:(small_config ()) () in
  let pile = W.make_workpile sys ~name:"p" ~total:5 ~chunk:100 in
  let got = ref None in
  ignore
    (System.spawn sys ~name:"t" (fun ~stack_vpage:_ ->
         got := W.workpile_take pile;
         Alcotest.(check bool) "then empty" true (W.workpile_take pile = None)));
  ignore (System.run sys);
  Alcotest.(check (option (pair int int))) "whole range at once" (Some (0, 4)) !got

let test_static_share_more_threads_than_work () =
  let covered = Array.make 3 0 in
  for tid = 0 to 6 do
    let lo, hi = W.static_share ~total:3 ~nthreads:7 ~tid in
    for i = lo to hi - 1 do
      covered.(i) <- covered.(i) + 1
    done
  done;
  Array.iter (fun n -> Alcotest.(check int) "each unit once" 1 n) covered

let test_alloc_arr_rejects_empty () =
  let sys = System.create ~config:(small_config ()) () in
  Alcotest.check_raises "empty array"
    (Invalid_argument "Workload.alloc_arr: words must be positive") (fun () ->
      ignore
        (W.alloc_arr sys ~name:"x" ~sharing:Region_attr.Declared_private ~words:0 ()))

(* --- protocol rendering ------------------------------------------------------------ *)

let test_protocol_tables_have_all_states () =
  List.iter
    (fun access ->
      let rendered = Numa_core.Protocol.render_table access in
      List.iter
        (fun sv ->
          let label = Numa_core.Protocol.state_view_to_string sv in
          let contains sub s =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) (label ^ " column present") true (contains label rendered))
        Numa_core.Protocol.all_state_views)
    [ Access.Load; Access.Store ]

(* --- table renderers ------------------------------------------------------------------ *)

let test_ablation_renderers_nonempty () =
  (* Renderers must produce headers even for empty row lists. *)
  Alcotest.(check bool) "threshold" true
    (String.length (Numa_metrics.Ablations.render_threshold_sweep []) > 0);
  Alcotest.(check bool) "scheduler" true
    (String.length (Numa_metrics.Ablations.render_scheduler_study []) > 0);
  Alcotest.(check bool) "gl" true
    (String.length (Numa_metrics.Ablations.render_gl_sweep []) > 0);
  Alcotest.(check bool) "bus" true
    (String.length (Numa_metrics.Ablations.render_bus_study []) > 0);
  Alcotest.(check bool) "migration" true
    (String.length (Numa_metrics.Ablations.render_migration_study []) > 0);
  Alcotest.(check bool) "cpu sweep" true
    (String.length (Numa_metrics.Ablations.render_cpu_sweep []) > 0);
  Alcotest.(check bool) "butterfly" true
    (String.length (Numa_metrics.Ablations.render_butterfly_study []) > 0)

let suite =
  [
    Alcotest.test_case "engine: large batch spans chunks" `Quick
      test_engine_large_batch_spans_chunks;
    Alcotest.test_case "engine: compute slicing exact" `Quick
      test_engine_compute_slicing_exact;
    Alcotest.test_case "engine: write value across chunks" `Quick
      test_engine_write_value_persists_across_chunks;
    Alcotest.test_case "engine: single-party barrier" `Quick test_engine_barrier_single_party;
    Alcotest.test_case "engine: deterministic lock handoff" `Quick
      test_engine_lock_handoff_deterministic;
    Alcotest.test_case "engine: syscall without stack" `Quick
      test_engine_syscall_without_stack_page;
    Alcotest.test_case "engine: thread count" `Quick test_engine_thread_count;
    Alcotest.test_case "system: per-region counts exact" `Quick
      test_per_region_counts_are_exact;
    Alcotest.test_case "report: helpers" `Quick test_report_summary_and_counts_helpers;
    Alcotest.test_case "system: hook detach" `Quick test_access_hook_detach;
    Alcotest.test_case "system: policy spec names" `Quick test_policy_spec_names;
    Alcotest.test_case "system: bus integration" `Quick test_bus_integration_slows_global_refs;
    Alcotest.test_case "stats: assoc and histogram" `Quick test_numa_stats_assoc_and_histogram;
    Alcotest.test_case "policy: info strings" `Quick test_policy_info_strings;
    Alcotest.test_case "workpile: single chunk" `Quick test_workpile_single_chunk_covers_all;
    Alcotest.test_case "static share: thin work" `Quick
      test_static_share_more_threads_than_work;
    Alcotest.test_case "alloc_arr rejects empty" `Quick test_alloc_arr_rejects_empty;
    Alcotest.test_case "protocol: tables list all states" `Quick
      test_protocol_tables_have_all_states;
    Alcotest.test_case "ablation renderers" `Quick test_ablation_renderers_nonempty;
  ]
