(* End-to-end smoke tests of the assembled system: small workloads driven
   through the full machine/VM/NUMA/engine stack. *)

open Numa_machine
module System = Numa_system.System
module Report = Numa_system.Report
module Api = Numa_sim.Api
module Region_attr = Numa_vm.Region_attr
module Manager = Numa_core.Numa_manager

let small_config ?(n_cpus = 4) () =
  Config.ace ~n_cpus ~local_pages_per_cpu:64 ~global_pages:256 ()

let mk ?policy ?(n_cpus = 4) () =
  System.create ?policy ~config:(small_config ~n_cpus ()) ()

let alloc_data sys ~name ~pages =
  System.alloc_region sys ~name ~kind:Region_attr.Data
    ~sharing:Region_attr.Declared_write_shared ~pages ()

let check_ok sys =
  match Numa_core.Invariant.result (System.audit sys) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violated: %s" msg

(* A single thread writing one private page: page must become
   local-writable on the thread's CPU, all references local. *)
let test_private_page_stays_local () =
  let sys = mk () in
  let data = alloc_data sys ~name:"private" ~pages:1 in
  ignore
    (System.spawn sys ~cpu:2 ~name:"w" (fun ~stack_vpage:_ ->
         Api.write ~count:100 data.System.base_vpage;
         Api.read ~count:50 data.System.base_vpage));
  let report = System.run sys in
  check_ok sys;
  (match System.lpage_of sys ~vpage:data.System.base_vpage () with
  | None -> Alcotest.fail "page never materialised"
  | Some lpage -> (
      match Manager.state_of (System.numa_manager sys) ~lpage with
      | Manager.Local_writable 2 -> ()
      | st -> Alcotest.failf "expected local-writable(2), got %a" Manager.pp_state st));
  Alcotest.(check int) "no global data refs" 0
    report.Report.refs_writable_data.Report.global_reads;
  Alcotest.(check bool) "alpha = 1" true (report.Report.alpha_counted > 0.999)

(* A page written once then only read by everyone: must end replicated
   read-only, with a replica on every reading CPU. *)
let test_read_mostly_page_replicates () =
  let sys = mk () in
  let data = alloc_data sys ~name:"table" ~pages:1 in
  let barrier = System.make_barrier sys ~name:"b" ~parties:4 in
  for cpu = 0 to 3 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "r%d" cpu)
         (fun ~stack_vpage:_ ->
           if cpu = 0 then Api.write ~count:10 ~value:42 data.System.base_vpage;
           Api.barrier barrier;
           Api.read ~count:200 data.System.base_vpage))
  done;
  ignore (System.run sys);
  check_ok sys;
  let lpage = Option.get (System.lpage_of sys ~vpage:data.System.base_vpage ()) in
  let mgr = System.numa_manager sys in
  (match Manager.state_of mgr ~lpage with
  | Manager.Read_only -> ()
  | st -> Alcotest.failf "expected read-only, got %a" Manager.pp_state st);
  Alcotest.(check int) "replicated on all 4 nodes" 4
    (List.length (Manager.replica_nodes mgr ~lpage))

(* A page written alternately by two CPUs: must exceed the move threshold
   and end up pinned in global memory. *)
let test_ping_pong_page_pins () =
  let sys = mk ~policy:(System.Move_limit { threshold = 4 }) () in
  let data = alloc_data sys ~name:"pingpong" ~pages:1 in
  let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
  for cpu = 0 to 1 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "w%d" cpu)
         (fun ~stack_vpage:_ ->
           for _round = 1 to 20 do
             Api.write data.System.base_vpage;
             Api.barrier barrier
           done))
  done;
  let report = System.run sys in
  check_ok sys;
  let lpage = Option.get (System.lpage_of sys ~vpage:data.System.base_vpage ()) in
  (match Manager.state_of (System.numa_manager sys) ~lpage with
  | Manager.Global_writable -> ()
  | st -> Alcotest.failf "expected global-writable, got %a" Manager.pp_state st);
  Alcotest.(check bool) "policy pinned at least one page" true (report.Report.pins >= 1);
  Alcotest.(check bool) "moves were counted" true (report.Report.numa_moves >= 4)

(* All-global policy: every data reference goes to global memory. *)
let test_all_global_policy () =
  let sys = mk ~policy:System.All_global () in
  let data = alloc_data sys ~name:"d" ~pages:2 in
  ignore
    (System.spawn sys ~name:"w" (fun ~stack_vpage:_ ->
         Api.write ~count:64 data.System.base_vpage;
         Api.read ~count:64 (data.System.base_vpage + 1)));
  let report = System.run sys in
  check_ok sys;
  Alcotest.(check int) "no local refs at all" 0
    (report.Report.refs_all.Report.local_reads + report.Report.refs_all.Report.local_writes);
  Alcotest.(check bool) "alpha = 0" true (report.Report.alpha_counted < 0.001)

(* Coherence: a value written by one thread must be observed by another
   after synchronisation, across protocol state changes. *)
let test_producer_consumer_coherence () =
  let sys = mk () in
  let data = alloc_data sys ~name:"d" ~pages:1 in
  let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
  let seen = ref (-1) in
  ignore
    (System.spawn sys ~cpu:0 ~name:"producer" (fun ~stack_vpage:_ ->
         Api.write ~value:7777 data.System.base_vpage;
         Api.barrier barrier));
  ignore
    (System.spawn sys ~cpu:1 ~name:"consumer" (fun ~stack_vpage:_ ->
         Api.barrier barrier;
         seen := Api.read_value data.System.base_vpage));
  ignore (System.run sys);
  check_ok sys;
  Alcotest.(check int) "consumer saw the produced value" 7777 !seen

(* Locks: mutual exclusion and accounting. *)
let test_lock_counter () =
  let sys = mk () in
  let data = alloc_data sys ~name:"counter" ~pages:1 in
  let lock = System.make_lock sys ~name:"l" in
  let hits = ref 0 in
  for cpu = 0 to 3 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "t%d" cpu)
         (fun ~stack_vpage:_ ->
           for _i = 1 to 25 do
             Api.with_lock lock (fun () ->
                 let v = Api.read_value data.System.base_vpage in
                 Api.compute 2000.;
                 Api.write ~value:(v + 1) data.System.base_vpage;
                 incr hits)
           done))
  done;
  let report = System.run sys in
  check_ok sys;
  Alcotest.(check int) "all critical sections ran" 100 !hits;
  Alcotest.(check int) "lock acquisitions" 100 report.Report.lock_acquisitions;
  let lpage = Option.get (System.lpage_of sys ~vpage:data.System.base_vpage ()) in
  (* The shared counter page was written from four CPUs: it must have been
     pinned global by the default policy. *)
  match Manager.state_of (System.numa_manager sys) ~lpage with
  | Manager.Global_writable -> ()
  | st -> Alcotest.failf "counter page should be global, got %a" Manager.pp_state st

(* T_local semantics: one thread on a one-CPU machine keeps everything
   local even for "shared" data. *)
let test_single_cpu_all_local () =
  let sys = mk ~n_cpus:1 () in
  let data = alloc_data sys ~name:"d" ~pages:4 in
  ignore
    (System.spawn sys ~name:"solo" (fun ~stack_vpage ->
         for p = 0 to 3 do
           Api.write ~count:100 (data.System.base_vpage + p);
           Api.read ~count:100 (data.System.base_vpage + p)
         done;
         Api.read ~count:10 stack_vpage));
  let report = System.run sys in
  check_ok sys;
  Alcotest.(check bool) "alpha = 1 on a single CPU" true
    (report.Report.alpha_counted > 0.999)

(* Pageout resets pinning (footnote 4). *)
let test_pageout_resets_pin () =
  let sys = mk ~policy:(System.Move_limit { threshold = 1 }) () in
  let data = alloc_data sys ~name:"d" ~pages:1 in
  let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
  for cpu = 0 to 1 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "w%d" cpu)
         (fun ~stack_vpage:_ ->
           for _i = 1 to 10 do
             Api.write ~value:cpu data.System.base_vpage;
             Api.barrier barrier
           done))
  done;
  ignore (System.run sys);
  let mgr = System.numa_manager sys in
  let lpage0 = Option.get (System.lpage_of sys ~vpage:data.System.base_vpage ()) in
  (match Manager.state_of mgr ~lpage:lpage0 with
  | Manager.Global_writable -> ()
  | st -> Alcotest.failf "expected pinned global page, got %a" Manager.pp_state st);
  System.page_out sys data ~page_index:0;
  Alcotest.(check bool) "page no longer resident" true
    (System.lpage_of sys ~vpage:data.System.base_vpage () = None);
  check_ok sys

(* Migrate-threads on a striped machine: ping-ponged pages pin on their
   stripe home, and the coordinated mode re-homes a thread toward them.
   The rehomes must surface in both the counter and the event stream. *)
let test_migrate_threads_rehomes () =
  let config = Config.butterfly ~n_cpus:4 ~local_pages_per_cpu:64 ~global_pages:256 () in
  let obs = Numa_obs.Hub.create () in
  let migrated_events = ref 0 in
  Numa_obs.Hub.attach obs ~name:"watch" (fun ~ts:_ ev ->
      match ev with
      | Numa_obs.Event.Thread_migrated _ -> incr migrated_events
      | _ -> ());
  let sys =
    System.create ~obs ~policy:(System.Migrate_threads { threshold = 1 }) ~config ()
  in
  (* Several ping-pong pages, so some pin on a stripe home that is
     neither writer's CPU and a re-homing hint fires. *)
  let data = alloc_data sys ~name:"pingpong" ~pages:4 in
  let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
  for cpu = 0 to 1 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "w%d" cpu)
         (fun ~stack_vpage:_ ->
           for _round = 1 to 10 do
             for page = 0 to 3 do
               Api.write ~count:50 (data.System.base_vpage + page)
             done;
             Api.barrier barrier
           done))
  done;
  let report = System.run sys in
  check_ok sys;
  Alcotest.(check bool) "pages were pinned" true (report.Report.pins >= 1);
  let n = System.thread_migrations sys in
  Alcotest.(check bool) "threads were re-homed" true (n >= 1);
  Alcotest.(check int) "each re-homing was announced" n !migrated_events

(* The default policy never re-homes anything. *)
let test_default_policy_never_rehomes () =
  let sys = mk () in
  let data = alloc_data sys ~name:"pingpong" ~pages:1 in
  let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
  for cpu = 0 to 1 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "w%d" cpu)
         (fun ~stack_vpage:_ ->
           for _round = 1 to 10 do
             Api.write ~count:100 data.System.base_vpage;
             Api.barrier barrier
           done))
  done;
  ignore (System.run sys);
  Alcotest.(check int) "no re-homing outside migrate-threads" 0
    (System.thread_migrations sys)

(* --- the application seam ---------------------------------------------- *)

(* A thread stores to a private page on CPU 0 and then plants a mapping of
   it on CPU 1. The end-of-run audit lists that protocol finding first and
   the registered audit's finding after it, and every total counts both. *)
let test_audit_appends_component_findings () =
  let obs = Numa_obs.Hub.create () in
  let checked = ref [] in
  Numa_obs.Hub.attach obs ~name:"watch" (fun ~ts:_ ev ->
      match ev with
      | Numa_obs.Event.Invariant_checked { violations } -> checked := violations :: !checked
      | _ -> ());
  let sys = System.create ~obs ~config:(small_config ~n_cpus:2 ()) () in
  System.set_component sys
    { System.on_fault = ignore; audit = Some (fun () -> [ "request 0 lost" ]); report = Fun.id };
  let vpage = (alloc_data sys ~name:"private" ~pages:1).System.base_vpage in
  ignore
    (System.spawn sys ~cpu:0 ~name:"w" (fun ~stack_vpage:_ ->
         Api.write vpage;
         let lpage = Option.get (System.lpage_of sys ~vpage ()) in
         let frame =
           Option.get (Manager.replica_frame (System.numa_manager sys) ~lpage ~node:0)
         in
         Mmu.enter
           (Numa_core.Pmap_manager.mmu (System.pmap_manager sys))
           ~pmap:(System.task sys).Numa_vm.Task.pmap ~cpu:1 ~vpage ~lpage
           ~prot:Prot.Read_write ~phys:(Mmu.Frame frame)));
  let rb = Option.get (System.run sys).Report.robustness in
  let lpage = Option.get (System.lpage_of sys ~vpage ()) in
  let expected =
    [ Printf.sprintf "local-writable page %d mapped on non-owner cpu 1" lpage; "request 0 lost" ]
  in
  Alcotest.(check (list string)) "first violations" expected rb.Report.first_violations;
  Alcotest.(check int) "one end-of-run audit" 1 rb.Report.invariant_checks;
  Alcotest.(check int) "both findings counted" 2 rb.Report.invariant_violations;
  Alcotest.(check (list string))
    "System.audit: protocol, then component" expected
    (System.audit sys).Numa_core.Invariant.violations;
  Alcotest.(check int) "running total" 4 (System.invariant_violations sys);
  Alcotest.(check (list int)) "Invariant_checked carries the combined count" [ 2; 2 ]
    !checked

(* The registered fault notice runs after the system's own handling: the
   node is already offline and drained when it hears of it, and back
   online when it hears that. *)
let test_fault_notice_sees_post_drain_state () =
  let faults = Result.get_ok (Numa_faults.Plan.of_string "node-offline:1@2,node-online:1@30") in
  let sys = System.create ~faults ~config:(Config.ace ~n_cpus:2 ()) () in
  let app = Option.get (Numa_apps.Registry.find "imatmult") in
  app.Numa_apps.App_sig.setup sys
    { Numa_apps.App_sig.nthreads = 2; scale = 0.05; seed = 42L };
  let frames = Numa_core.Pmap_manager.frames (System.pmap_manager sys) in
  let seen = ref [] in
  let on_fault notice =
    seen :=
      (notice, System.node_online sys ~node:1, Frame_table.local_in_use frames ~node:1)
      :: !seen
  in
  System.set_component sys { System.on_fault; audit = None; report = Fun.id };
  ignore (System.run sys);
  match List.rev !seen with
  | [ (System.Fault_node_offline 1, false, 0); (System.Fault_node_online 1, true, _) ] -> ()
  | notices ->
      Alcotest.failf "unexpected notices: %s"
        (String.concat "; "
           (List.map
              (fun (n, online, in_use) ->
                Printf.sprintf "%s online=%b in_use=%d"
                  (match n with
                  | System.Fault_node_offline n -> Printf.sprintf "offline %d" n
                  | System.Fault_node_online n -> Printf.sprintf "online %d" n)
                  online in_use)
              notices))

(* A clean run audits only when the registered component has an audit,
   and then exactly once, at the end. *)
let test_component_audit_presence () =
  let robustness audit =
    let sys = mk () in
    let data = alloc_data sys ~name:"d" ~pages:1 in
    ignore
      (System.spawn sys ~name:"w" (fun ~stack_vpage:_ -> Api.write data.System.base_vpage));
    System.set_component sys { System.on_fault = ignore; audit; report = Fun.id };
    (System.run sys).Report.robustness
  in
  Alcotest.(check bool) "no audit, no robustness section" true (robustness None = None);
  match robustness (Some (fun () -> [])) with
  | None -> Alcotest.fail "an empty audit still ends the run with one"
  | Some rb ->
      Alcotest.(check int) "exactly one audit" 1 rb.Report.invariant_checks;
      Alcotest.(check int) "and it is clean" 0 rb.Report.invariant_violations

(* The fault path's allocation: imatmult on 2 CPUs paging through 12
   logical pages with a page-table replica per node, the shape of the
   benchmark's thrash workload at a smaller scale. Nearly every event
   misses the TLB, walks, faults or pages, so a box or a list left on
   that path shows here. The bound holds for the workspace's profile,
   which builds without -opaque (dune-workspace); it reads 69.6 there.
   Under --profile dev the same code reads 93.1, so the case also fails
   on a build that loses the workspace profile. *)
let test_fault_path_allocation () =
  let config = Config.ace ~n_cpus:2 ~global_pages:12 () in
  let sys = System.create ~pt_mode:(Pt.Replicated None) ~config () in
  let app = Option.get (Numa_apps.Registry.find "imatmult") in
  app.Numa_apps.App_sig.setup sys
    { Numa_apps.App_sig.nthreads = 2; scale = 0.1; seed = 42L };
  let before = Gc.minor_words () in
  let r = System.run sys in
  let words = (Gc.minor_words () -. before) /. float_of_int r.Report.n_events in
  if words > 74. then
    Alcotest.failf "%.1f minor words per event over %d events (at most 74)" words
      r.Report.n_events

let suite =
  [
    Alcotest.test_case "private page stays local" `Quick test_private_page_stays_local;
    Alcotest.test_case "fault path allocation" `Quick test_fault_path_allocation;
    Alcotest.test_case "read-mostly page replicates" `Quick test_read_mostly_page_replicates;
    Alcotest.test_case "ping-pong page pins" `Quick test_ping_pong_page_pins;
    Alcotest.test_case "all-global policy" `Quick test_all_global_policy;
    Alcotest.test_case "producer/consumer coherence" `Quick test_producer_consumer_coherence;
    Alcotest.test_case "lock-protected counter" `Quick test_lock_counter;
    Alcotest.test_case "single CPU is all-local" `Quick test_single_cpu_all_local;
    Alcotest.test_case "pageout resets pinning" `Quick test_pageout_resets_pin;
    Alcotest.test_case "migrate-threads re-homes threads" `Quick
      test_migrate_threads_rehomes;
    Alcotest.test_case "default policy never re-homes" `Quick
      test_default_policy_never_rehomes;
    Alcotest.test_case "audit appends component findings" `Quick
      test_audit_appends_component_findings;
    Alcotest.test_case "fault notice sees post-drain state" `Quick
      test_fault_notice_sees_post_drain_state;
    Alcotest.test_case "component audit presence" `Quick test_component_audit_presence;
  ]
