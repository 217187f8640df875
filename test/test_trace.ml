(* Tests for the trace library: capture, persistence, classification,
   false-sharing analysis, and the offline-optimal DP. *)

open Numa_machine
module System = Numa_system.System
module Api = Numa_sim.Api
module Trace_buffer = Numa_trace.Trace_buffer
module Classify = Numa_trace.Classify
module False_sharing = Numa_trace.False_sharing
module Optimal = Numa_trace.Optimal
module Region_attr = Numa_vm.Region_attr

let small_config () = Config.ace ~n_cpus:4 ~local_pages_per_cpu:64 ~global_pages:128 ()

let traced_run ~setup =
  let sys = System.create ~config:(small_config ()) () in
  let buffer = Trace_buffer.create () in
  Trace_buffer.attach buffer sys;
  setup sys;
  ignore (System.run sys);
  (sys, buffer)

let three_class_workload sys =
  let alloc name sharing =
    System.alloc_region sys ~name ~kind:Region_attr.Data ~sharing ~pages:1 ()
  in
  let private_ = alloc "private" Region_attr.Declared_private in
  let read_shared = alloc "read-shared" Region_attr.Declared_read_shared in
  let write_shared = alloc "write-shared" Region_attr.Declared_write_shared in
  let barrier = System.make_barrier sys ~name:"b" ~parties:3 in
  (* Note: the read-shared page is never written at all — by the paper's
     definition (section 4.2) even a single initialising write would make a
     multi-reader page "writably shared". *)
  for cpu = 0 to 2 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun ~stack_vpage:_ ->
           if cpu = 0 then begin
             Api.write ~count:20 private_.System.base_vpage;
             Api.read ~count:20 private_.System.base_vpage
           end;
           Api.barrier barrier;
           Api.read ~count:30 read_shared.System.base_vpage;
           Api.write ~count:10 write_shared.System.base_vpage))
  done;
  (private_, read_shared, write_shared)

(* --- degenerate inputs --------------------------------------------------- *)

let mk_event ?(at = 0.) ~cpu ~vpage ~kind ~count ~region () =
  {
    System.at;
    cpu;
    tid = cpu;
    vpage;
    kind;
    count;
    where = Location.In_global;
    region;
  }

let test_classify_empty_trace () =
  let buffer = Trace_buffer.create () in
  Alcotest.(check int) "no page summaries" 0 (List.length (Classify.classify buffer));
  let findings = False_sharing.analyse ~declared_of:(fun ~vpage:_ -> None) [] in
  Alcotest.(check int) "no findings" 0 (List.length findings);
  Alcotest.(check int) "no problems" 0 (List.length (False_sharing.problems findings))

let test_classify_single_reference_page () =
  let buffer = Trace_buffer.create () in
  Trace_buffer.add buffer
    (mk_event ~cpu:2 ~vpage:7 ~kind:Access.Load ~count:1 ~region:"solo" ());
  match Classify.classify buffer with
  | [ s ] ->
      Alcotest.(check int) "page" 7 s.Classify.vpage;
      Alcotest.(check int) "one read" 1 s.Classify.reads;
      Alcotest.(check int) "no writes" 0 s.Classify.writes;
      Alcotest.(check (list int)) "single reader" [ 2 ] s.Classify.readers;
      Alcotest.(check (list int)) "no writers" [] s.Classify.writers;
      Alcotest.(check string) "classed private" "private"
        (Classify.class_to_string s.Classify.cls)
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l)

let test_classify_write_only_page () =
  let buffer = Trace_buffer.create () in
  Trace_buffer.add buffer
    (mk_event ~cpu:0 ~vpage:3 ~kind:Access.Store ~count:5 ~region:"wo" ());
  (match Classify.classify buffer with
  | [ s ] ->
      Alcotest.(check int) "writes counted" 5 s.Classify.writes;
      Alcotest.(check int) "no reads" 0 s.Classify.reads;
      Alcotest.(check bool) "one writer, no other users: private" true
        (s.Classify.cls = Classify.Class_private)
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l));
  (* A second writing CPU makes the write-only page writably shared. *)
  Trace_buffer.add buffer
    (mk_event ~at:1. ~cpu:1 ~vpage:3 ~kind:Access.Store ~count:2 ~region:"wo" ());
  match Classify.classify buffer with
  | [ s ] ->
      Alcotest.(check (list int)) "both writers" [ 0; 1 ] s.Classify.writers;
      Alcotest.(check bool) "two writers: writably shared" true
        (s.Classify.cls = Classify.Class_write_shared)
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l)

(* --- buffer ------------------------------------------------------------- *)

let test_capture_counts () =
  let _, buffer = traced_run ~setup:(fun sys -> ignore (three_class_workload sys)) in
  Alcotest.(check bool) "events recorded" true (Trace_buffer.length buffer > 10);
  Alcotest.(check bool) "references exceed events (batching)" true
    (Trace_buffer.total_references buffer > Trace_buffer.length buffer)

let test_events_in_time_order () =
  let _, buffer = traced_run ~setup:(fun sys -> ignore (three_class_workload sys)) in
  let last = ref neg_infinity and ok = ref true in
  Trace_buffer.iter buffer (fun e ->
      if e.System.at < !last then ok := false;
      last := e.System.at);
  Alcotest.(check bool) "non-decreasing timestamps" true !ok

let test_save_load_roundtrip () =
  let _, buffer = traced_run ~setup:(fun sys -> ignore (three_class_workload sys)) in
  let path = Filename.temp_file "trace" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_buffer.save buffer path;
      let reloaded = Trace_buffer.load path in
      Alcotest.(check int) "same length" (Trace_buffer.length buffer)
        (Trace_buffer.length reloaded);
      Alcotest.(check int) "same total refs" (Trace_buffer.total_references buffer)
        (Trace_buffer.total_references reloaded);
      (* Spot-check field fidelity on every event. *)
      let a = ref [] and b = ref [] in
      Trace_buffer.iter buffer (fun e -> a := (e.System.cpu, e.System.vpage, e.System.kind, e.System.count) :: !a);
      Trace_buffer.iter reloaded (fun e -> b := (e.System.cpu, e.System.vpage, e.System.kind, e.System.count) :: !b);
      Alcotest.(check bool) "events identical" true (!a = !b))

(* --- classification ---------------------------------------------------------- *)

let test_classification_three_classes () =
  let sys, buffer =
    let result = ref None in
    let sys, buffer =
      traced_run ~setup:(fun sys -> result := Some (three_class_workload sys))
    in
    ignore !result;
    (sys, buffer)
  in
  ignore sys;
  let summaries = Classify.classify buffer in
  let class_of region =
    match List.find_opt (fun (s : Classify.summary) -> s.Classify.region = region) summaries with
    | Some s -> s.Classify.cls
    | None -> Alcotest.failf "region %s not classified" region
  in
  Alcotest.(check bool) "private" true (class_of "private" = Classify.Class_private);
  Alcotest.(check bool) "read-shared" true
    (class_of "read-shared" = Classify.Class_read_shared);
  Alcotest.(check bool) "write-shared" true
    (class_of "write-shared" = Classify.Class_write_shared)

let test_by_region_grouping () =
  let _, buffer = traced_run ~setup:(fun sys -> ignore (three_class_workload sys)) in
  let groups = Classify.by_region (Classify.classify buffer) in
  Alcotest.(check bool) "private region present" true
    (List.mem_assoc "private" groups);
  (* Every page appears exactly once across groups. *)
  let total = List.fold_left (fun acc (_, pages) -> acc + List.length pages) 0 groups in
  Alcotest.(check int) "partition" (List.length (Classify.classify buffer)) total

(* --- false sharing ------------------------------------------------------------- *)

let test_false_sharing_detection () =
  (* Declare a region read-shared but write it from two CPUs. *)
  let sys, buffer =
    traced_run ~setup:(fun sys ->
        let lying =
          System.alloc_region sys ~name:"liar" ~kind:Region_attr.Data
            ~sharing:Region_attr.Declared_read_shared ~pages:1 ()
        in
        let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
        for cpu = 0 to 1 do
          ignore
            (System.spawn sys ~cpu ~name:(Printf.sprintf "t%d" cpu)
               (fun ~stack_vpage:_ ->
                 Api.write ~count:5 lying.System.base_vpage;
                 Api.barrier barrier;
                 Api.read ~count:5 lying.System.base_vpage))
        done)
  in
  let findings =
    False_sharing.analyse
      ~declared_of:(False_sharing.declared_of_system sys)
      (Classify.classify buffer)
  in
  let problems = False_sharing.problems findings in
  Alcotest.(check bool) "found the liar" true
    (List.exists
       (fun (f : False_sharing.finding) ->
         f.False_sharing.page.Classify.region = "liar"
         && f.False_sharing.verdict = False_sharing.False_shared)
       problems)

let test_segregation_candidate_detection () =
  (* A write-shared page that is almost exclusively read by many CPUs. *)
  let sys, buffer =
    traced_run ~setup:(fun sys ->
        let hot =
          System.alloc_region sys ~name:"hot" ~kind:Region_attr.Data
            ~sharing:Region_attr.Declared_write_shared ~pages:1 ()
        in
        let barrier = System.make_barrier sys ~name:"b" ~parties:3 in
        for cpu = 0 to 2 do
          ignore
            (System.spawn sys ~cpu ~name:(Printf.sprintf "t%d" cpu)
               (fun ~stack_vpage:_ ->
                 if cpu = 0 then Api.write hot.System.base_vpage;
                 Api.barrier barrier;
                 Api.read ~count:500 hot.System.base_vpage))
        done)
  in
  let findings =
    False_sharing.analyse
      ~declared_of:(False_sharing.declared_of_system sys)
      (Classify.classify buffer)
  in
  Alcotest.(check bool) "flagged for segregation" true
    (List.exists
       (fun (f : False_sharing.finding) ->
         f.False_sharing.page.Classify.region = "hot"
         && f.False_sharing.verdict = False_sharing.Segregation_candidate)
       findings)

(* --- optimal DP ------------------------------------------------------------------ *)

let event ~cpu ~kind ~count =
  {
    System.at = 0.;
    cpu;
    tid = cpu;
    vpage = 0;
    kind;
    count;
    where = Location.In_global;
    region = "p";
  }

let test_optimal_private_page_is_local () =
  let config = small_config () in
  (* One CPU only: the optimum is zero-fill local + local references. *)
  let events = [ event ~cpu:1 ~kind:Access.Store ~count:100 ] in
  let opt = Optimal.page_optimal_ns ~config events in
  let expected =
    Cost.page_zero_ns config ~dst:Location.Local_here
    +. Cost.pmap_action_ns config
    +. Cost.references_ns config ~access:Access.Store ~where:Location.Local_here ~count:100
  in
  Alcotest.(check (float 1.)) "local store optimum" expected opt

let test_optimal_read_sharing_replicates () =
  let config = small_config () in
  (* Many readers: optimal replicates rather than staying global. *)
  let events = List.init 4 (fun cpu -> event ~cpu ~kind:Access.Load ~count:1000) in
  let opt = Optimal.page_optimal_ns ~config events in
  let all_global =
    Cost.page_zero_ns config ~dst:Location.In_global
    +. Cost.pmap_action_ns config
    +. Cost.references_ns config ~access:Access.Load ~where:Location.In_global ~count:4000
  in
  Alcotest.(check bool) "replication beats global for heavy readers" true
    (opt < all_global)

let test_optimal_ping_pong_goes_global () =
  let config = small_config () in
  (* Alternating writers with tiny batches: staying global must win over
     migrating every time. *)
  let events =
    List.init 40 (fun i -> event ~cpu:(i mod 2) ~kind:Access.Store ~count:1)
  in
  let opt = Optimal.page_optimal_ns ~config events in
  let all_global =
    Cost.page_zero_ns config ~dst:Location.In_global
    +. Cost.pmap_action_ns config
    +. Cost.references_ns config ~access:Access.Store ~where:Location.In_global ~count:40
  in
  Alcotest.(check (float 1.)) "global is optimal for ping-pong" all_global opt

let test_optimal_analyse_end_to_end () =
  let _, buffer = traced_run ~setup:(fun sys -> ignore (three_class_workload sys)) in
  let result = Optimal.analyse ~config:(small_config ()) buffer in
  Alcotest.(check bool) "pages analysed" true (result.Optimal.pages > 0);
  Alcotest.(check bool) "costs positive" true
    (result.Optimal.actual_ns > 0. && result.Optimal.optimal_ns > 0.)

(* --- trace replay ------------------------------------------------------------------ *)

let test_replay_matches_live_placement_shape () =
  (* Trace a ping-pong run, replay under the same policy: the replay must
     pin the page too, and an all-global replay of the same trace must
     show zero local references. *)
  let sys, buffer =
    traced_run ~setup:(fun sys ->
        let data =
          System.alloc_region sys ~name:"d" ~kind:Region_attr.Data
            ~sharing:Region_attr.Declared_write_shared ~pages:1 ()
        in
        let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
        for cpu = 0 to 1 do
          ignore
            (System.spawn sys ~cpu ~name:(Printf.sprintf "t%d" cpu)
               (fun ~stack_vpage:_ ->
                 for _round = 1 to 20 do
                   Numa_sim.Api.write ~count:8 data.System.base_vpage;
                   Numa_sim.Api.barrier barrier
                 done))
        done)
  in
  let config = System.config sys in
  let same = Numa_trace.Replay.replay ~config ~policy:(System.Move_limit { threshold = 4 }) buffer in
  Alcotest.(check bool) "replay pins the ping-pong page" true (same.Numa_trace.Replay.pins >= 1);
  Alcotest.(check bool) "replay counted moves" true (same.Numa_trace.Replay.moves >= 4);
  let glob = Numa_trace.Replay.replay ~config ~policy:System.All_global buffer in
  Alcotest.(check int) "all-global replay has no local refs" 0
    glob.Numa_trace.Replay.local_refs;
  Alcotest.(check int) "all-global replay never moves" 0 glob.Numa_trace.Replay.moves;
  (* Never-pin replays strictly more protocol work than move-limit. *)
  let never = Numa_trace.Replay.replay ~config ~policy:System.Never_pin buffer in
  Alcotest.(check bool) "never-pin pays more protocol" true
    (never.Numa_trace.Replay.protocol_ns > same.Numa_trace.Replay.protocol_ns)

let test_replay_policy_comparison_renders () =
  let _, buffer = traced_run ~setup:(fun sys -> ignore (three_class_workload sys)) in
  let config = small_config () in
  let results =
    Numa_trace.Replay.compare_policies ~config
      ~policies:[ System.Move_limit { threshold = 4 }; System.All_global ]
      buffer
  in
  Alcotest.(check int) "two rows" 2 (List.length results);
  let rendered = Numa_trace.Replay.render results in
  Alcotest.(check bool) "mentions both policies" true
    (String.length rendered > 0
    && List.length (String.split_on_char '\n' rendered) >= 4)

let test_renderers_exact () =
  (* The replay and false-sharing tables, byte for byte: column order,
     alignment, and replay's "na" for a policy with no references. *)
  let row policy_name ~ref_ns ~local_refs ~global_refs =
    {
      Numa_trace.Replay.policy_name;
      ref_ns;
      protocol_ns = 2.5e8;
      moves = 12;
      pins = 3;
      local_refs;
      global_refs;
      remote_refs = 0;
    }
  in
  Alcotest.(check string) "replay table"
    "policy         refs (s)  protocol (s)  total (s)  moves  pins  local frac\n\
     -------------------------------------------------------------------------\n\
     move-limit(4)     1.250         0.250      1.500     12     3       0.750\n\
     none              0.000         0.250      0.250     12     3          na\n"
    (Numa_trace.Replay.render
       [
         row "move-limit(4)" ~ref_ns:1.25e9 ~local_refs:3 ~global_refs:1;
         row "none" ~ref_ns:0. ~local_refs:0 ~global_refs:0;
       ]);
  let page =
    {
      Classify.vpage = 17;
      region = "divisors";
      reads = 40;
      writes = 2;
      readers = [ 0; 1 ];
      writers = [ 1 ];
      cls = Classify.Class_write_shared;
    }
  in
  Alcotest.(check string) "false-sharing table"
    "page  region    declared  observed      verdict\n\
     -----------------------------------------------------\n\
     \  17  divisors  private   write-shared  FALSE SHARING\n"
    (False_sharing.render
       [
         {
           False_sharing.page;
           declared = Numa_vm.Region_attr.Declared_private;
           verdict = False_sharing.False_shared;
         };
       ])

let suite =
  [
    Alcotest.test_case "replay matches live shape" `Quick
      test_replay_matches_live_placement_shape;
    Alcotest.test_case "replay comparison renders" `Quick
      test_replay_policy_comparison_renders;
    Alcotest.test_case "capture counts" `Quick test_capture_counts;
    Alcotest.test_case "events in time order" `Quick test_events_in_time_order;
    Alcotest.test_case "save/load round trip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "three-class classification" `Quick test_classification_three_classes;
    Alcotest.test_case "empty trace" `Quick test_classify_empty_trace;
    Alcotest.test_case "single-reference page" `Quick test_classify_single_reference_page;
    Alcotest.test_case "write-only page" `Quick test_classify_write_only_page;
    Alcotest.test_case "by-region grouping" `Quick test_by_region_grouping;
    Alcotest.test_case "false sharing detection" `Quick test_false_sharing_detection;
    Alcotest.test_case "segregation candidate" `Quick test_segregation_candidate_detection;
    Alcotest.test_case "optimal: private page local" `Quick test_optimal_private_page_is_local;
    Alcotest.test_case "optimal: readers replicate" `Quick test_optimal_read_sharing_replicates;
    Alcotest.test_case "optimal: ping-pong global" `Quick test_optimal_ping_pong_goes_global;
    Alcotest.test_case "optimal: end to end" `Quick test_optimal_analyse_end_to_end;
    Alcotest.test_case "replay and false-sharing tables" `Quick test_renderers_exact;
  ]
