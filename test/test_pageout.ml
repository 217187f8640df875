(* Tests for the pageout daemon, both standalone and end-to-end through a
   workload whose footprint exceeds the logical page pool. *)

open Numa_machine
open Numa_vm
module System = Numa_system.System
module Api = Numa_sim.Api
module Region_attr = Numa_vm.Region_attr

let make_env ~global_pages =
  let config = Config.ace ~n_cpus:2 ~local_pages_per_cpu:8 ~global_pages () in
  let policy = Numa_core.Policy.move_limit ~n_pages:global_pages () in
  let pmap_mgr = Numa_core.Pmap_manager.create ~config ~policy () in
  let ops = Numa_core.Pmap_manager.ops pmap_mgr in
  let pool = Lpage_pool.create config ~ops in
  (config, ops, pool)

let test_daemon_evicts_to_high_water () =
  let _, ops, pool = make_env ~global_pages:8 in
  let daemon = Pageout.create ~pool ~ops ~low_water:2 ~high_water:4 () in
  let obj = Vm_object.create ~id:0 ~name:"o" ~size_pages:8 in
  Pageout.register daemon obj;
  (* Fill the pool. *)
  for offset = 0 to 7 do
    ignore (Result.get_ok (Vm_object.lpage_for obj ~pool ~ops ~offset))
  done;
  Alcotest.(check int) "pool full" 0 (Lpage_pool.n_free pool);
  let evicted = Pageout.tick daemon in
  Alcotest.(check int) "evicted to high water" 4 evicted;
  Alcotest.(check int) "free restored" 4 (Lpage_pool.n_free pool);
  Alcotest.(check int) "counter" 4 (Pageout.evictions daemon);
  (* Above low water: tick is a no-op. *)
  Alcotest.(check int) "no-op tick" 0 (Pageout.tick daemon)

let test_daemon_preserves_content () =
  let _, ops, pool = make_env ~global_pages:4 in
  let daemon = Pageout.create ~pool ~ops ~low_water:1 ~high_water:2 () in
  let obj = Vm_object.create ~id:0 ~name:"o" ~size_pages:8 in
  Pageout.register daemon obj;
  (* Touch every page, writing a distinct value, reclaiming as needed. *)
  for offset = 0 to 7 do
    if Lpage_pool.n_free pool = 0 then
      Alcotest.(check bool) "reclaim" true (Pageout.ensure_free daemon ~needed:1);
    let lpage = Result.get_ok (Vm_object.lpage_for obj ~pool ~ops ~offset) in
    ops.Pmap_intf.install_page ~lpage ~content:(1000 + offset)
  done;
  (* Read them all back, reclaiming again; contents must survive. *)
  for offset = 0 to 7 do
    (match Vm_object.slot obj ~offset with
    | Vm_object.Resident _ -> ()
    | Vm_object.Paged_out _ ->
        if Lpage_pool.n_free pool = 0 then
          ignore (Pageout.ensure_free daemon ~needed:1)
    | Vm_object.Empty -> Alcotest.fail "page lost");
    let lpage = Result.get_ok (Vm_object.lpage_for obj ~pool ~ops ~offset) in
    Alcotest.(check int)
      (Printf.sprintf "content of page %d" offset)
      (1000 + offset)
      (ops.Pmap_intf.extract_content ~lpage)
  done

let test_daemon_gives_up_when_nothing_evictable () =
  let _, ops, pool = make_env ~global_pages:2 in
  let daemon = Pageout.create ~pool ~ops ~low_water:1 ~high_water:2 () in
  (* No registered objects: allocate the pool dry directly. *)
  ignore (Lpage_pool.alloc pool);
  ignore (Lpage_pool.alloc pool);
  Alcotest.(check bool) "cannot reclaim" false (Pageout.ensure_free daemon ~needed:1)

(* End to end: a workload with a footprint twice the pool size runs to
   completion through transparent reclamation, and values written before
   eviction are read back correctly after page-in. *)
let test_system_overcommit () =
  let config = Config.ace ~n_cpus:2 ~local_pages_per_cpu:32 ~global_pages:16 () in
  let sys = System.create ~config () in
  let data =
    System.alloc_region sys ~name:"big" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:28 ()
  in
  let mismatches = ref 0 in
  ignore
    (System.spawn sys ~cpu:0 ~name:"writer" (fun ~stack_vpage:_ ->
         for p = 0 to 27 do
           Api.write ~value:(500 + p) ~count:4 (data.System.base_vpage + p)
         done;
         for p = 0 to 27 do
           if Api.read_value (data.System.base_vpage + p) <> 500 + p then incr mismatches
         done));
  let report = System.run sys in
  Alcotest.(check int) "all values survive eviction" 0 !mismatches;
  Alcotest.(check bool) "run produced work" true (report.Numa_system.Report.total_user_ns > 0.);
  match Numa_core.Invariant.result (System.audit sys) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariants: %s" msg

(* Pin reset through the daemon: a pinned page that is evicted and paged
   back in starts fresh and can live locally again (footnote 4). *)
let test_overcommit_resets_pins () =
  let config = Config.ace ~n_cpus:2 ~local_pages_per_cpu:32 ~global_pages:12 () in
  let sys = System.create ~policy:(System.Move_limit { threshold = 1 }) ~config () in
  let shared =
    System.alloc_region sys ~name:"shared" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_write_shared ~pages:1 ()
  in
  let filler =
    System.alloc_region sys ~name:"filler" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:20 ()
  in
  let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
  ignore
    (System.spawn sys ~cpu:0 ~name:"a" (fun ~stack_vpage:_ ->
         (* Ping-pong to pin the shared page. *)
         for _ = 1 to 6 do
           Api.write shared.System.base_vpage;
           Api.barrier barrier
         done;
         (* Churn through the filler to force the shared page out. *)
         for p = 0 to 19 do
           Api.write ~count:2 (filler.System.base_vpage + p)
         done;
         Api.barrier barrier;
         (* Touch the shared page again: fresh history. *)
         Api.write ~count:8 shared.System.base_vpage;
         Api.barrier barrier));
  ignore
    (System.spawn sys ~cpu:1 ~name:"b" (fun ~stack_vpage:_ ->
         for _ = 1 to 6 do
           Api.barrier barrier;
           Api.write shared.System.base_vpage
         done;
         Api.barrier barrier;
         Api.barrier barrier));
  ignore (System.run sys);
  match Numa_core.Invariant.result (System.audit sys) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariants: %s" msg

(* Regression: a registry whose objects all have size_pages = 0 used to
   recurse forever in the clock hunt (the object-advance branch did not
   count as a step, so the budget never decreased). evict_one must stay
   total and simply report that nothing is evictable. *)
let test_evict_one_zero_sized_objects () =
  let _, ops, pool = make_env ~global_pages:4 in
  let daemon = Pageout.create ~pool ~ops ~low_water:1 ~high_water:2 () in
  Pageout.register daemon (Vm_object.create ~id:0 ~name:"z0" ~size_pages:0);
  Pageout.register daemon (Vm_object.create ~id:1 ~name:"z1" ~size_pages:0);
  Alcotest.(check bool) "zero-sized registry terminates" false (Pageout.evict_one daemon);
  (* A real page hiding behind the empty objects is still found: the
     budget covers the object advances. *)
  let obj = Vm_object.create ~id:2 ~name:"real" ~size_pages:1 in
  Pageout.register daemon obj;
  ignore (Result.get_ok (Vm_object.lpage_for obj ~pool ~ops ~offset:0));
  Alcotest.(check bool) "page behind empty objects found" true
    (Pageout.evict_one daemon);
  Alcotest.(check bool) "then nothing again" false (Pageout.evict_one daemon)

(* ensure_free frees what the fault needs plus the low-water cushion and
   stops — the old burst swept on to the high-water mark, evicting whole
   working sets on a single fault. The daemon tick resumes the climb. *)
let test_ensure_free_burst_is_capped () =
  let _, ops, pool = make_env ~global_pages:16 in
  let daemon = Pageout.create ~pool ~ops ~low_water:2 ~high_water:8 () in
  let obj = Vm_object.create ~id:0 ~name:"o" ~size_pages:16 in
  Pageout.register daemon obj;
  for offset = 0 to 15 do
    ignore (Result.get_ok (Vm_object.lpage_for obj ~pool ~ops ~offset))
  done;
  Alcotest.(check bool) "reclaim succeeds" true (Pageout.ensure_free daemon ~needed:1);
  Alcotest.(check int) "burst capped at needed + low water" 3
    (Pageout.evictions daemon);
  Alcotest.(check int) "free matches" 3 (Lpage_pool.n_free pool);
  (* Above low water, the tick leaves things alone... *)
  Alcotest.(check int) "tick is a no-op above low water" 0 (Pageout.tick daemon);
  (* ...but once the pool dips below, it finishes the climb to high water. *)
  ignore (Lpage_pool.alloc pool);
  ignore (Lpage_pool.alloc pool);
  Alcotest.(check int) "tick resumes to high water" 7 (Pageout.tick daemon);
  Alcotest.(check int) "high water restored" 8 (Lpage_pool.n_free pool)

(* Clock-hand fairness: the cursor resumes where it stopped, across object
   boundaries, instead of restarting at object 0 — a restarting hand would
   evict the same early pages over and over. *)
let test_clock_hand_resumes_across_objects () =
  let _, ops, pool = make_env ~global_pages:4 in
  let daemon = Pageout.create ~pool ~ops ~low_water:1 ~high_water:2 () in
  let a = Vm_object.create ~id:0 ~name:"a" ~size_pages:2 in
  let b = Vm_object.create ~id:1 ~name:"b" ~size_pages:2 in
  Pageout.register daemon a;
  Pageout.register daemon b;
  List.iter
    (fun (obj, offset) ->
      ignore (Result.get_ok (Vm_object.lpage_for obj ~pool ~ops ~offset)))
    [ (a, 0); (a, 1); (b, 0); (b, 1) ];
  let paged_out obj ~offset =
    match Vm_object.slot obj ~offset with
    | Vm_object.Paged_out _ -> true
    | Vm_object.Empty | Vm_object.Resident _ -> false
  in
  Alcotest.(check bool) "evicts a.0" true (Pageout.evict_one daemon);
  Alcotest.(check bool) "a.0 out" true (paged_out a ~offset:0);
  (* Bring a.0 back: a restarting hand would claim it again next. *)
  ignore (Result.get_ok (Vm_object.lpage_for a ~pool ~ops ~offset:0));
  Alcotest.(check bool) "evicts a.1" true (Pageout.evict_one daemon);
  Alcotest.(check bool) "hand did not restart at a.0" false (paged_out a ~offset:0);
  Alcotest.(check bool) "a.1 out" true (paged_out a ~offset:1);
  (* The hand crosses into object b... *)
  Alcotest.(check bool) "evicts b.0" true (Pageout.evict_one daemon);
  Alcotest.(check bool) "b.0 out" true (paged_out b ~offset:0);
  Alcotest.(check bool) "evicts b.1" true (Pageout.evict_one daemon);
  Alcotest.(check bool) "b.1 out" true (paged_out b ~offset:1);
  (* ...and wraps back around to the resurrected a.0. *)
  Alcotest.(check bool) "wraps to a.0" true (Pageout.evict_one daemon);
  Alcotest.(check bool) "a.0 out after wrap" true (paged_out a ~offset:0);
  Alcotest.(check bool) "registry drained" false (Pageout.evict_one daemon)

(* [avoid] names the page an in-flight fault is placing: even when it is
   the only eviction candidate left, the sweep must fail rather than pull
   the page out from under the fault. *)
let test_avoid_protects_inflight_page () =
  let _, ops, pool = make_env ~global_pages:2 in
  let daemon = Pageout.create ~pool ~ops ~low_water:1 ~high_water:2 () in
  let obj = Vm_object.create ~id:0 ~name:"o" ~size_pages:2 in
  Pageout.register daemon obj;
  let l0 = Result.get_ok (Vm_object.lpage_for obj ~pool ~ops ~offset:0) in
  ignore (Result.get_ok (Vm_object.lpage_for obj ~pool ~ops ~offset:1));
  Alcotest.(check bool) "evicts the other page" true
    (Pageout.ensure_free ~avoid:l0 daemon ~needed:1);
  Alcotest.(check bool) "protected page still resident" true
    (Vm_object.slot obj ~offset:0 = Vm_object.Resident l0);
  (* Exhaustion: the only candidate left is the protected page. *)
  Alcotest.(check bool) "sweep refuses the avoided page" false
    (Pageout.ensure_free ~avoid:l0 daemon ~needed:2);
  Alcotest.(check bool) "still resident after refusal" true
    (Vm_object.slot obj ~offset:0 = Vm_object.Resident l0)

(* The per-frame state machine itself: legal arrows land where the diagram
   says, pending states block eviction, redirty during writeback is
   tracked, and an illegal arrow raises. *)
let test_paging_state_machine () =
  let config = Config.ace ~n_cpus:2 ~global_pages:4 () in
  let p = Paging.create ~config () in
  let check_st msg want ~lpage =
    Alcotest.(check string) msg (Paging.state_name want)
      (Paging.state_name (Paging.state p ~lpage))
  in
  check_st "born empty" Paging.Empty ~lpage:0;
  Paging.note_zero_fill p ~lpage:0;
  check_st "zero fill is a dirty birth" Paging.Dirty ~lpage:0;
  Alcotest.(check bool) "dirty is evictable" true (Paging.evictable p ~lpage:0);
  Paging.start_writeback p ~lpage:0 ~now:0. ~by_cpu:0;
  check_st "writeback pending" Paging.Writeback ~lpage:0;
  Alcotest.(check bool) "in flight is not evictable" false (Paging.evictable p ~lpage:0);
  Alcotest.(check (list int)) "on the in-flight list" [ 0 ] (Paging.in_flight_lpages p);
  Alcotest.(check int) "not due yet" 0 (Paging.complete_due p ~now:1.0);
  (* A store racing the disk write: completion must land back in Dirty. *)
  Paging.mark_dirty p ~lpage:0;
  check_st "still writing" Paging.Writeback ~lpage:0;
  Alcotest.(check int) "lands when due" 1 (Paging.complete_due p ~now:1e12);
  check_st "redirtied lands dirty" Paging.Dirty ~lpage:0;
  Paging.sync_writeback p ~lpage:0 ~by_cpu:0;
  check_st "sync writeback cleans" Paging.Clean ~lpage:0;
  (* An undisturbed async writeback lands clean. *)
  Paging.mark_dirty p ~lpage:0;
  Paging.start_writeback p ~lpage:0 ~now:0. ~by_cpu:0;
  Alcotest.(check int) "force landing" 1 (Paging.force_complete p);
  check_st "clean after landing" Paging.Clean ~lpage:0;
  Paging.note_free p ~lpage:0;
  check_st "free resets to empty" Paging.Empty ~lpage:0;
  (* The page-in bracket. *)
  Paging.begin_read p ~lpage:1;
  check_st "reading" Paging.Reading ~lpage:1;
  Alcotest.(check bool) "reading is not evictable" false (Paging.evictable p ~lpage:1);
  Paging.end_read p ~lpage:1;
  check_st "read lands clean" Paging.Clean ~lpage:1;
  (* Freeing mid-writeback cancels the I/O. *)
  Paging.mark_dirty p ~lpage:2;
  Paging.start_writeback p ~lpage:2 ~now:0. ~by_cpu:0;
  Paging.note_free p ~lpage:2;
  check_st "cancel on free" Paging.Empty ~lpage:2;
  Alcotest.(check (list int)) "in-flight list drained" [] (Paging.in_flight_lpages p);
  (* Writebacks land newest first, whether due or forced, and one that is
     not yet due stays in flight. *)
  let landed = ref [] in
  let obs = Numa_obs.Hub.create () in
  Numa_obs.Hub.attach obs ~name:"landed" (fun ~ts:_ -> function
    | Numa_obs.Event.Writeback_done { lpage; _ } -> landed := lpage :: !landed
    | _ -> ());
  let q = Paging.create ~obs ~config () in
  let start lpage ~now =
    Paging.mark_dirty q ~lpage;
    Paging.start_writeback q ~lpage ~now ~by_cpu:0
  in
  start 0 ~now:0.;
  start 1 ~now:1e15;
  start 2 ~now:0.;
  start 3 ~now:0.;
  Paging.note_free q ~lpage:2;
  Alcotest.(check (list int)) "in flight, newest first" [ 3; 1; 0 ] (Paging.in_flight_lpages q);
  Alcotest.(check int) "two due" 2 (Paging.complete_due q ~now:1e12);
  Alcotest.(check (list int)) "the undue one stays" [ 1 ] (Paging.in_flight_lpages q);
  start 2 ~now:0.;
  Alcotest.(check int) "two forced" 2 (Paging.force_complete q);
  Alcotest.(check (list int)) "landing order" [ 3; 0; 2; 1 ] (List.rev !landed);
  let s = Paging.stats p in
  Alcotest.(check int) "one page-in" 1 s.Paging.page_ins;
  Alcotest.(check int) "three writebacks started" 3 s.Paging.writebacks_started;
  Alcotest.(check int) "two landed" 2 s.Paging.writebacks_completed;
  Alcotest.(check int) "one canceled" 1 s.Paging.writebacks_canceled;
  Alcotest.(check int) "one redirty" 1 s.Paging.redirtied;
  Alcotest.(check int) "one sync flush" 1 s.Paging.sync_writebacks;
  (* Illegal arrows raise instead of corrupting the census. *)
  (match Paging.end_read p ~lpage:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "end_read on a Clean entry must raise");
  match Paging.start_writeback p ~lpage:1 ~now:0. ~by_cpu:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "start_writeback on a Clean entry must raise"

(* End to end under sustained pressure: the reconsideration tick drives the
   async writeback daemon, the report grows its paging section, and a full
   audit — including the per-frame relation — stays clean. *)
let test_system_pressure_audit () =
  let config = Config.ace ~n_cpus:2 ~local_pages_per_cpu:32 ~global_pages:16 () in
  let sys = System.create ~paranoid:true ~config () in
  let data =
    System.alloc_region sys ~name:"big" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:28 ()
  in
  ignore
    (System.spawn sys ~cpu:0 ~name:"churn" (fun ~stack_vpage:_ ->
         (* Enough batched accesses to cross the 512-access reconsideration
            interval several times while the working set keeps overflowing
            the pool (each Api.write is one batch). *)
         for round = 1 to 60 do
           for p = 0 to 27 do
             Api.write ~value:(round + p) ~count:8 (data.System.base_vpage + p)
           done
         done));
  let report = System.run sys in
  (match report.Numa_system.Report.paging with
  | None -> Alcotest.fail "pressured run must carry a paging section"
  | Some pg ->
      Alcotest.(check bool) "page-ins happened" true (pg.Numa_system.Report.page_ins > 0);
      Alcotest.(check bool) "evictions happened" true
        (pg.Numa_system.Report.evictions > 0);
      Alcotest.(check bool) "the daemon started async writebacks" true
        (pg.Numa_system.Report.writebacks_started > 0);
      Alcotest.(check int) "nothing left mid-writeback unaccounted" 0
        (pg.Numa_system.Report.in_writeback
        - List.length
            (Numa_machine.Paging.in_flight_lpages
               (Numa_core.Pmap_manager.paging (System.pmap_manager sys)))));
  let audit = System.audit sys in
  Alcotest.(check (list string)) "audit clean under pressure" []
    audit.Numa_core.Invariant.violations;
  Alcotest.(check bool) "per-frame relation was checked" true
    (audit.Numa_core.Invariant.paging_checked > 0);
  match report.Numa_system.Report.robustness with
  | None -> Alcotest.fail "paranoid run must carry a robustness section"
  | Some r ->
      Alcotest.(check int) "no violations during the run" 0
        r.Numa_system.Report.invariant_violations;
      Alcotest.(check int) "no OOM" 0 r.Numa_system.Report.oom_faults

(* The LRU-approx victim evicts the coldest page: fault-time use ticks are
   the only reference signal, and the page never touched again since the
   beginning must go first. *)
let test_lru_evicts_coldest () =
  let config = Config.ace ~n_cpus:2 ~local_pages_per_cpu:32 ~global_pages:8 () in
  let sys = System.create ~victim:Numa_vm.Pageout.Lru_approx ~config () in
  let data =
    System.alloc_region sys ~name:"d" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:12 ()
  in
  let survived = ref true in
  ignore
    (System.spawn sys ~cpu:0 ~name:"w" (fun ~stack_vpage:_ ->
         (* Touch pages 0..11 in order; the pool overflows along the way,
            so by the end the low offsets (coldest) must have been the
            ones paged out. *)
         for p = 0 to 11 do
           Api.write ~value:p (data.System.base_vpage + p)
         done;
         if Api.read_value (data.System.base_vpage + 11) <> 11 then survived := false));
  ignore (System.run sys);
  Alcotest.(check bool) "hottest page survived" true !survived;
  let cold_out =
    match Numa_vm.Vm_object.slot data.System.obj ~offset:0 with
    | Numa_vm.Vm_object.Paged_out _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "coldest page was evicted" true cold_out

let suite =
  [
    Alcotest.test_case "daemon evicts to high water" `Quick test_daemon_evicts_to_high_water;
    Alcotest.test_case "daemon preserves content" `Quick test_daemon_preserves_content;
    Alcotest.test_case "daemon gives up gracefully" `Quick
      test_daemon_gives_up_when_nothing_evictable;
    Alcotest.test_case "overcommitted workload completes" `Quick test_system_overcommit;
    Alcotest.test_case "overcommit resets pins" `Quick test_overcommit_resets_pins;
    Alcotest.test_case "zero-sized registry terminates" `Quick
      test_evict_one_zero_sized_objects;
    Alcotest.test_case "ensure_free burst is capped" `Quick
      test_ensure_free_burst_is_capped;
    Alcotest.test_case "clock hand resumes across objects" `Quick
      test_clock_hand_resumes_across_objects;
    Alcotest.test_case "avoid protects the in-flight page" `Quick
      test_avoid_protects_inflight_page;
    Alcotest.test_case "paging state machine" `Quick test_paging_state_machine;
    Alcotest.test_case "pressure run: daemon + audit" `Quick test_system_pressure_audit;
    Alcotest.test_case "lru evicts the coldest page" `Quick test_lru_evicts_coldest;
  ]
