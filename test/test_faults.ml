(* Fault injection and graceful degradation: plan parsing, the
   deterministic injector, node/link/frame degradation end to end, and the
   protocol invariant checker — plus the CLI-facing parsers' error paths. *)

open Numa_machine
module Plan = Numa_faults.Plan
module Injector = Numa_faults.Injector
module System = Numa_system.System
module Report = Numa_system.Report
module App_sig = Numa_apps.App_sig
module Invariant = Numa_core.Invariant
module Numa_manager = Numa_core.Numa_manager
module Pmap_manager = Numa_core.Pmap_manager

let parse_ok s =
  match Plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S failed to parse: %s" s e

(* --- plan parsing ------------------------------------------------------- *)

let test_plan_roundtrip () =
  List.iter
    (fun s ->
      let canonical = Plan.to_string (parse_ok s) in
      Alcotest.(check string) (s ^ " canonical") s canonical;
      Alcotest.(check string)
        (s ^ " reparse stable") canonical
        (Plan.to_string (parse_ok canonical)))
    [
      "node-offline:1@5";
      "node-online:1@7.5";
      "link-degrade:0:1:8@2..10";
      "frame-squeeze:0:0.25@3";
      "spurious-shootdown:0.5";
      "stale-pte:3@5";
      "node-offline:1@5,stale-pte:0@20,node-online:1@40,spurious-shootdown:2";
      "node-offline:1@5,node-online:1@40,spurious-shootdown:2";
    ]

let test_plan_sorts_by_time () =
  (* Entries sort by time; the rate rider always renders last. *)
  Alcotest.(check string) "canonical order"
    "frame-squeeze:0:0.5@2,node-offline:1@9"
    (Plan.to_string (parse_ok "node-offline:1@9,frame-squeeze:0:0.5@2"))

let test_plan_empty () =
  let p = parse_ok "" in
  Alcotest.(check bool) "empty plan" true (Plan.is_empty p);
  Alcotest.(check string) "renders empty" "" (Plan.to_string p)

let test_plan_malformed () =
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Ok _ -> Alcotest.failf "plan %S should not parse" s
      | Error msg ->
          Alcotest.(check bool) (s ^ " has a message") true (String.length msg > 0))
    [
      "node-offline";
      "node-offline:1";
      "node-offline:x@5";
      "node-offline:-1@5";
      "node-online:1@";
      "node-online:1:2@5";
      "link-degrade:0:1:0.5@2..10";
      "link-degrade:0:1:2@5..3";
      "link-degrade:0:1:2@5";
      "link-degrade:0:2@5..9";
      "frame-squeeze:0:1.5@2";
      "frame-squeeze:0@2";
      "spurious-shootdown:-1";
      "spurious-shootdown:";
      "wibble:3@4";
      "stale-pte";
      "stale-pte:1";
      "stale-pte:x@5";
      "stale-pte:1:2@5";
      "node-offline:1@5ms";
      "node-flap:1:0@110..190";
      "node-flap:1:-5@110..190";
      "node-flap:9@1";
      "node-flap:1:40@190..110";
    ]

let test_node_flap_canonicalises () =
  (* The sugar expands to alternating offline/online pairs: offline at the
     start of each period, back online half a period later. *)
  Alcotest.(check string) "flap expands to offline/online pairs"
    "node-offline:1@110,node-online:1@130,node-offline:1@150,node-online:1@170"
    (Plan.to_string (parse_ok "node-flap:1:40@110..190"));
  (* The canonical form reparses to the same schedule. *)
  let canonical = Plan.to_string (parse_ok "node-flap:1:40@110..190") in
  Alcotest.(check string) "canonical form reparses stable" canonical
    (Plan.to_string (parse_ok canonical));
  (* A recovery that would overshoot the window clamps to its end, so the
     node always finishes the window online. *)
  Alcotest.(check string) "last recovery clamps to the window end"
    "node-offline:0@100,node-online:0@130,node-offline:0@160,node-online:0@175"
    (Plan.to_string (parse_ok "node-flap:0:60@100..175"))

let test_plan_validate () =
  let ok plan = Alcotest.(check bool) (plan ^ " valid") true
      (Result.is_ok (Plan.validate (parse_ok plan) ~cpu_nodes:2 ~n_nodes:3))
  and bad plan = Alcotest.(check bool) (plan ^ " rejected") true
      (Result.is_error (Plan.validate (parse_ok plan) ~cpu_nodes:2 ~n_nodes:3))
  in
  ok "node-offline:1@5";
  ok "frame-squeeze:1:0.5@5";
  (* Links may reach the memory-only board (node 2 of 3)... *)
  ok "link-degrade:0:2:4@1..2";
  (* ...but frame pools exist only on CPU nodes. *)
  bad "node-offline:2@5";
  bad "node-online:2@5";
  bad "frame-squeeze:2:0.5@5";
  bad "link-degrade:0:3:4@1..2";
  bad "link-degrade:3:0:4@1..2"

(* --- the injector ------------------------------------------------------- *)

let test_injector_schedule () =
  let plan = parse_ok "node-offline:1@5,frame-squeeze:0:0.5@5,node-online:1@10" in
  let inj = Injector.create plan ~n_pages:8 in
  Alcotest.(check int) "nothing before 5 ms" 0
    (List.length (Injector.due inj ~now:4.9e6));
  (match Injector.due inj ~now:5e6 with
  | [ a; b ] ->
      (match (a.Injector.action, b.Injector.action) with
      | Injector.Set_node_offline 1, Injector.Squeeze_frames { node = 0; _ } -> ()
      | _ -> Alcotest.fail "wrong actions (or wrong written order) at 5 ms")
  | l -> Alcotest.failf "expected 2 actions at 5 ms, got %d" (List.length l));
  Alcotest.(check int) "one action left" 1 (Injector.remaining inj);
  (match Injector.due inj ~now:20e6 with
  | [ { Injector.action = Injector.Set_node_online 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected the node-online action");
  Alcotest.(check int) "drained" 0 (Injector.remaining inj);
  Alcotest.(check int) "three fired in total" 3 (Injector.fired inj)

let test_injector_spurious_deterministic () =
  let draws () =
    let inj = Injector.create (parse_ok "spurious-shootdown:2") ~n_pages:16 in
    List.map
      (fun f ->
        match f.Injector.action with
        | Injector.Spurious_shootdown { lpage } -> (f.Injector.at_ns, lpage)
        | _ -> Alcotest.fail "non-shootdown action in a rate-only plan")
      (Injector.due inj ~now:5e6)
  in
  let a = draws () and b = draws () in
  Alcotest.(check bool) "some shootdowns in 5 ms" true (List.length a > 0);
  Alcotest.(check bool) "pages in range" true
    (List.for_all (fun (_, l) -> l >= 0 && l < 16) a);
  if a <> b then Alcotest.fail "same seed produced different shootdown schedules"

(* --- machine-level degradation primitives ------------------------------- *)

let test_offline_online_pool () =
  let t = Frame_table.create (Config.ace ~n_cpus:2 ~local_pages_per_cpu:4 ()) in
  let f = Option.get (Frame_table.alloc_local t ~node:1) in
  Alcotest.(check bool) "online initially" true (Frame_table.node_online t ~node:1);
  Frame_table.set_node_online t ~node:1 false;
  Alcotest.(check bool) "alloc refused offline" true
    (Frame_table.alloc_local t ~node:1 = None);
  Alcotest.(check int) "capacity reads 0 offline" 0
    (Frame_table.local_capacity t ~node:1);
  (* Frames already handed out stay valid so a drain can still free them. *)
  Frame_table.free_local t f;
  Frame_table.set_node_online t ~node:1 true;
  Alcotest.(check bool) "alloc works again" true
    (Frame_table.alloc_local t ~node:1 <> None)

let test_squeeze_pool () =
  let t = Frame_table.create (Config.ace ~n_cpus:2 ~local_pages_per_cpu:4 ()) in
  let limit = Frame_table.squeeze t ~node:0 ~frac:0.5 in
  Alcotest.(check int) "limit halved" 2 limit;
  Alcotest.(check int) "capacity follows the limit" 2
    (Frame_table.local_capacity t ~node:0);
  let f1 = Option.get (Frame_table.alloc_local t ~node:0) in
  let _f2 = Option.get (Frame_table.alloc_local t ~node:0) in
  Alcotest.(check bool) "third alloc refused" true
    (Frame_table.alloc_local t ~node:0 = None);
  Frame_table.free_local t f1;
  Alcotest.(check bool) "alloc after free ok" true
    (Frame_table.alloc_local t ~node:0 <> None);
  Alcotest.check_raises "frac out of range"
    (Invalid_argument "Frame_table.squeeze: frac not in [0,1]") (fun () ->
      ignore (Frame_table.squeeze t ~node:0 ~frac:1.5));
  (* Rounding is half-up, not truncation: 0.9 of 4 frames is 4, not 3 —
     and frac 1.0 must restore the exact capacity, where int_of_float of
     a product like 4.0 *. 0.9999999 used to lose a frame. *)
  Alcotest.(check int) "0.9 rounds up to 4" 4 (Frame_table.squeeze t ~node:0 ~frac:0.9);
  Alcotest.(check int) "0.6 rounds to 2" 2 (Frame_table.squeeze t ~node:0 ~frac:0.6);
  Alcotest.(check int) "0.85 rounds to 3" 3 (Frame_table.squeeze t ~node:0 ~frac:0.85);
  Alcotest.(check int) "frac 1.0 restores full capacity" 4
    (Frame_table.squeeze t ~node:0 ~frac:1.0);
  Alcotest.(check int) "capacity back to 4" 4 (Frame_table.local_capacity t ~node:0)

let test_bus_degrade () =
  (* Queueing delay: the second burst at the same instant waits for the
     first to drain, so its delay is the first burst's service time — which
     a degraded link stretches by the factor. *)
  let config = { (Config.ace ~n_cpus:2 ()) with Config.bus_words_per_ns = 1.0 } in
  let second_burst_delay ~degrade =
    let bus = Bus.create config in
    if degrade then Bus.set_degrade bus ~src:0 ~dst:1 ~factor:4.;
    ignore (Bus.delay_ns ~src:0 ~dst:1 bus ~now:0. ~words:100);
    Bus.delay_ns ~src:0 ~dst:1 bus ~now:0. ~words:100
  in
  Alcotest.(check (float 1e-9)) "healthy service" 100. (second_burst_delay ~degrade:false);
  Alcotest.(check (float 1e-9)) "degraded 4x" 400. (second_burst_delay ~degrade:true);
  let bus = Bus.create config in
  Bus.set_degrade bus ~src:0 ~dst:1 ~factor:4.;
  Bus.clear_degrade bus ~src:0 ~dst:1;
  ignore (Bus.delay_ns ~src:0 ~dst:1 bus ~now:0. ~words:100);
  Alcotest.(check (float 1e-9)) "clear restores bandwidth" 100.
    (Bus.delay_ns ~src:0 ~dst:1 bus ~now:0. ~words:100)

(* --- end-to-end faulted runs -------------------------------------------- *)

let run_faulted ?(name = "imatmult") ?(n_cpus = 2) ?(scale = 0.05)
    ?(local_pages_per_cpu = 1024) ~plan () =
  let app = Option.get (Numa_apps.Registry.find name) in
  let config = Config.ace ~n_cpus ~local_pages_per_cpu () in
  let sys = System.create ~faults:(parse_ok plan) ~paranoid:true ~config () in
  app.App_sig.setup sys { App_sig.nthreads = n_cpus; scale; seed = 42L };
  (System.run sys, sys)

let robustness (r : Report.t) =
  match r.Report.robustness with
  | Some rb -> rb
  | None -> Alcotest.fail "faulted run lost its robustness section"

let test_node_offline_drains () =
  let r, sys = run_faulted ~plan:"node-offline:1@2" () in
  let rb = robustness r in
  Alcotest.(check int) "one fault injected" 1 rb.Report.faults_injected;
  Alcotest.(check int) "one drain" 1 rb.Report.node_drains;
  Alcotest.(check int) "no violations" 0 rb.Report.invariant_violations;
  Alcotest.(check bool) "audits actually ran" true (rb.Report.invariant_checks > 1);
  let frames = Numa_core.Pmap_manager.frames (System.pmap_manager sys) in
  Alcotest.(check bool) "node 1 is down" false (Frame_table.node_online frames ~node:1);
  Alcotest.(check int) "node 1 fully evacuated" 0
    (Frame_table.local_in_use frames ~node:1);
  (* Degraded, not dead: the run finished, and LOCAL placements simply
     stopped landing on the dead node. *)
  Alcotest.(check bool) "run completed" true (r.Report.elapsed_ns > 0.)

let test_node_offline_rehomes_threads () =
  let r, sys = run_faulted ~plan:"node-offline:1@2" () in
  let rb = robustness r in
  Alcotest.(check bool) "threads moved off the node" true
    (rb.Report.threads_rehomed > 0);
  let engine = System.engine sys in
  for tid = 0 to Numa_sim.Engine.n_threads engine - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "thread %d not homed on the dead node" tid)
      true
      (Numa_sim.Engine.thread_cpu engine ~tid <> 1)
  done

let test_spurious_shootdowns_harmless () =
  let r, _sys = run_faulted ~plan:"spurious-shootdown:2" () in
  let rb = robustness r in
  Alcotest.(check bool) "shootdowns fired" true (rb.Report.spurious_shootdowns > 0);
  Alcotest.(check int) "no violations" 0 rb.Report.invariant_violations

let test_faulted_run_byte_identical () =
  let bytes () =
    let r, _ =
      run_faulted ~plan:"node-offline:1@2,node-online:1@30,spurious-shootdown:1" ()
    in
    Numa_obs.Json.to_string (Report.to_json r)
  in
  Alcotest.(check string) "same plan, same bytes" (bytes ()) (bytes ())

let test_squeeze_forces_fallback () =
  (* Starve the local pools mid-run: allocation failures must degrade to
     GLOBAL (fallbacks counted), never fail the run or corrupt state. *)
  let r, _sys =
    run_faulted ~plan:"frame-squeeze:0:0.02@1,frame-squeeze:1:0.02@1"
      ~local_pages_per_cpu:64 ()
  in
  let rb = robustness r in
  Alcotest.(check int) "two faults" 2 rb.Report.faults_injected;
  Alcotest.(check bool) "fallbacks happened" true (r.Report.numa_local_fallbacks > 0);
  Alcotest.(check bool) "reclaim retried first" true (rb.Report.reclaim_retries > 0);
  Alcotest.(check int) "no violations" 0 rb.Report.invariant_violations

let test_clean_run_has_no_robustness_section () =
  let app = Option.get (Numa_apps.Registry.find "imatmult") in
  let config = Config.ace ~n_cpus:2 () in
  let sys = System.create ~config () in
  app.App_sig.setup sys { App_sig.nthreads = 2; scale = 0.03; seed = 42L };
  let r = System.run sys in
  Alcotest.(check bool) "no robustness section" true (r.Report.robustness = None)

let test_bad_plan_rejected_by_create () =
  let config = Config.ace ~n_cpus:2 () in
  match System.create ~faults:(parse_ok "node-offline:5@1") ~config () with
  | _ -> Alcotest.fail "out-of-range fault plan accepted"
  | exception Invalid_argument _ -> ()

(* --- the invariant checker catches real damage --------------------------- *)

(* A two-CPU pmap layer under move-limit at threshold 0 (the third
   alternating store pins a page), with [enter ~cpu ~lpage access]
   faulting a page in through the pmap interface at vpage = lpage. *)
let checker_fixture () =
  let config = Config.ace ~n_cpus:2 ~global_pages:8 () in
  let policy = Numa_core.Policy.move_limit ~threshold:0 ~n_pages:8 () in
  let mgr = Pmap_manager.create ~config ~policy () in
  let ops = Pmap_manager.ops mgr in
  let pmap = ops.Numa_vm.Pmap_intf.pmap_create ~name:"chk" in
  let enter ~cpu ~lpage access =
    ops.Numa_vm.Pmap_intf.enter ~pmap ~cpu ~vpage:lpage ~lpage
      ~min_prot:(Prot.of_access access) ~max_prot:Prot.Read_write
  in
  (mgr, ops, pmap, enter)

let sweep mgr =
  Invariant.check ~manager:(Pmap_manager.manager mgr) ~mmu:(Pmap_manager.mmu mgr)
    ~frames:(Pmap_manager.frames mgr) ~config:(Pmap_manager.config mgr) ()

let test_checker_catches_undrained_offline () =
  let mgr, ops, pmap, enter = checker_fixture () in
  (* First-touch store places the page local-writable on CPU 0's node. *)
  enter ~cpu:0 ~lpage:0 Access.Store;
  ops.Numa_vm.Pmap_intf.write_slot ~pmap ~cpu:0 ~vpage:0 42;
  Alcotest.(check int) "coherent before the damage" 0
    (List.length (sweep mgr).Invariant.violations);
  (* Yank the node without draining: a dirty owner is now stranded on
     offline memory — exactly what the checker exists to catch. *)
  Frame_table.set_node_online (Pmap_manager.frames mgr) ~node:0 false;
  let rep = sweep mgr in
  Alcotest.(check bool) "undrained offline detected" true
    (List.length rep.Invariant.violations > 0);
  Alcotest.(check bool) "result is an error" true (Result.is_error (Invariant.result rep))

(* Plant one mapping with [Mmu.enter] that breaks the directory/MMU
   relation: the sweep is clean before it and names exactly that
   relation after it. *)
let check_planted mgr ~pmap ~cpu ~lpage ~prot ~phys expected =
  let violations () = (sweep mgr).Invariant.violations in
  Alcotest.(check (list string)) "coherent before the damage" [] (violations ());
  Mmu.enter (Pmap_manager.mmu mgr) ~pmap ~cpu ~vpage:lpage ~lpage ~prot ~phys;
  Alcotest.(check (list string)) "the broken relation" [ expected ] (violations ())

let replica mgr ~lpage ~node =
  Option.get (Numa_manager.replica_frame (Pmap_manager.manager mgr) ~lpage ~node)

let test_checker_catches_writable_replica () =
  let mgr, _, pmap, enter = checker_fixture () in
  enter ~cpu:0 ~lpage:0 Access.Load;
  enter ~cpu:1 ~lpage:0 Access.Load;
  check_planted mgr ~pmap ~cpu:0 ~lpage:0 ~prot:Prot.Read_write
    ~phys:(Mmu.Frame (replica mgr ~lpage:0 ~node:0))
    "read-only page 0 mapped writable on cpu 0"

let test_checker_catches_non_owner_mapping () =
  let mgr, _, pmap, enter = checker_fixture () in
  enter ~cpu:0 ~lpage:0 Access.Store;
  check_planted mgr ~pmap ~cpu:1 ~lpage:0 ~prot:Prot.Read_write
    ~phys:(Mmu.Frame (replica mgr ~lpage:0 ~node:0))
    "local-writable page 0 mapped on non-owner cpu 1"

let test_checker_catches_global_via_local_frame () =
  let mgr, _, pmap, enter = checker_fixture () in
  List.iter (fun cpu -> enter ~cpu ~lpage:0 Access.Store) [ 0; 1; 0 ];
  (match Numa_manager.state_of (Pmap_manager.manager mgr) ~lpage:0 with
  | Numa_manager.Global_writable -> ()
  | st -> Alcotest.failf "expected global-writable, got %a" Numa_manager.pp_state st);
  (* Borrow page 1's local frame for page 0's mapping. *)
  enter ~cpu:0 ~lpage:1 Access.Store;
  check_planted mgr ~pmap ~cpu:0 ~lpage:0 ~prot:Prot.Read_write
    ~phys:(Mmu.Frame (replica mgr ~lpage:1 ~node:0))
    "global page 0: mapping on cpu 0 bypasses the global frame"

(* Damage that only one layer's table can show: each page below is
   untouched, unreplicated, unmapped and paging-Empty in every layer but
   one, so a sweep that skipped that layer's pages would miss it. *)

let test_checker_sees_mmu_only_damage () =
  let mgr, _, pmap, _ = checker_fixture () in
  check_planted mgr ~pmap ~cpu:0 ~lpage:7 ~prot:Prot.Read_only
    ~phys:(Mmu.Global_frame 7) "untouched page 7 is mapped"

let test_checker_sees_manager_only_damage () =
  let mgr, _, _, enter = checker_fixture () in
  enter ~cpu:0 ~lpage:0 Access.Store;
  ignore (Numa_manager.spurious_shootdown (Pmap_manager.manager mgr) ~lpage:0);
  Alcotest.(check (list string)) "coherent before the damage" []
    (sweep mgr).Invariant.violations;
  (* The page is now held by the directory alone: no mapping reaches it. *)
  Frame_table.set_node_online (Pmap_manager.frames mgr) ~node:0 false;
  Alcotest.(check (list string))
    "the stranded replica"
    [
      "page 0: replica survives on offline node 0";
      "local-writable page 0: dirty owner frame 0 on offline node 0";
    ]
    (sweep mgr).Invariant.violations

(* primes1 on a 16-page pool leaves lpage 15 on the free list at the end,
   with an Empty paging entry and nothing in any other layer. *)
let free_page_system () =
  let config = Config.ace ~n_cpus:2 ~global_pages:16 () in
  let sys = System.create ~config () in
  let app = Option.get (Numa_apps.Registry.find "primes1") in
  app.App_sig.setup sys { App_sig.nthreads = 2; scale = 0.01; seed = 42L };
  ignore (System.run sys);
  Alcotest.(check bool) "lpage 15 is free" false
    (Numa_vm.Lpage_pool.is_allocated (System.pool sys) 15);
  Alcotest.(check (list string)) "coherent before the damage" []
    (System.audit sys).Invariant.violations;
  sys

let frames_of sys = Pmap_manager.frames (System.pmap_manager sys)

let test_checker_sees_paging_only_dirty () =
  let sys = free_page_system () in
  Frame_table.write_global (frames_of sys) ~lpage:15 1;
  Alcotest.(check (list string))
    "the dirty free page"
    [ "page 15: on the free list but its paging entry is dirty" ]
    (System.audit sys).Invariant.violations

let test_checker_sees_paging_only_reading () =
  let sys = free_page_system () in
  Paging.begin_read (Option.get (Frame_table.paging (frames_of sys))) ~lpage:15;
  Alcotest.(check (list string))
    "the open page-in on a free page"
    [
      "page 15: paging entry stuck in Reading between requests";
      "page 15: on the free list but its paging entry is reading";
    ]
    (System.audit sys).Invariant.violations

(* --- satellite: malformed policy specs ---------------------------------- *)

let test_policy_spec_errors () =
  List.iter
    (fun s ->
      match System.policy_spec_of_string s with
      | Ok _ -> Alcotest.failf "policy spec %S should not parse" s
      | Error msg ->
          Alcotest.(check bool) (s ^ " has a message") true (String.length msg > 0))
    [
      "";
      "unknown";
      "move-limit:x";
      "move-limit:-1";
      "move-limit:4:2";
      "random:";
      "random:1.5";
      "random:x";
      "reconsider:4";
      "reconsider:x:50";
      "reconsider:4:0";
      "decay:3";
      "decay:3:0";
      "decay:x:50";
      "bandwidth-aware:x";
      "bandwidth-aware:-2";
      "migrate-threads:x";
      "all-global:1";
    ]

let test_policy_spec_ok () =
  List.iter
    (fun s ->
      match System.policy_spec_of_string s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "policy spec %S rejected: %s" s msg)
    [
      "move-limit"; "move-limit:7"; "all-global"; "never-pin"; "random:0.5";
      "reconsider:4:50"; "decay"; "decay:3:50"; "bandwidth-aware";
      "bandwidth-aware:2"; "migrate-threads"; "migrate-threads:9";
    ]

(* --- satellite: pool exhaustion is a typed, observable outcome ----------- *)

let test_oom_is_typed_and_observed () =
  let open Numa_vm in
  let config = Config.ace ~n_cpus:2 ~global_pages:8 () in
  let policy = Numa_core.Policy.move_limit ~n_pages:config.Config.global_pages () in
  let pmap_mgr = Numa_core.Pmap_manager.create ~config ~policy () in
  let ops = Numa_core.Pmap_manager.ops pmap_mgr in
  let pool = Lpage_pool.create config ~ops in
  let task = Task.create ~ops ~id:0 ~name:"oom" in
  let hub = Numa_obs.Hub.create () in
  let oom_events = ref [] in
  Numa_obs.Hub.attach hub ~name:"test" (fun ~ts:_ ev ->
      match ev with
      | Numa_obs.Event.Out_of_memory { cpu; vpage } ->
          oom_events := (cpu, vpage) :: !oom_events
      | _ -> ());
  let ctx =
    {
      Fault.ops;
      config;
      topo = Config.topology config;
      sink = Numa_core.Pmap_manager.sink pmap_mgr;
      pool;
      pageout = None;
      obs = Some hub;
    }
  in
  let obj = Vm_object.create ~id:0 ~name:"big" ~size_pages:16 in
  let region =
    Vm_map.allocate task.Task.map ~npages:16 ~obj ~obj_offset:0
      ~max_prot:Prot.Read_write
      ~attr:
        (Region_attr.v ~name:"big" ~kind:Region_attr.Data
           ~sharing:Region_attr.Declared_private ())
      ()
  in
  let base = region.Vm_map.base_vpage in
  let rec touch vpage =
    if vpage >= base + 16 then Alcotest.fail "pool never ran out"
    else
      match Fault.handle ctx task ~cpu:0 ~vpage ~access:Access.Store with
      | Ok () -> touch (vpage + 1)
      | Error Fault.Out_of_memory -> vpage
      | Error e -> Alcotest.failf "unexpected fault error: %s" (Fault.error_to_string e)
  in
  let failed_at = touch base in
  Alcotest.(check int) "pool exhausted after 8 pages" (base + 8) failed_at;
  Alcotest.(check (list (pair int int))) "exactly one OOM event, at the failing access"
    [ (0, failed_at) ] !oom_events

let suite =
  [
    Alcotest.test_case "plan round-trips" `Quick test_plan_roundtrip;
    Alcotest.test_case "plan sorts by time" `Quick test_plan_sorts_by_time;
    Alcotest.test_case "empty plan" `Quick test_plan_empty;
    Alcotest.test_case "malformed plans rejected" `Quick test_plan_malformed;
    Alcotest.test_case "node-flap canonicalises" `Quick test_node_flap_canonicalises;
    Alcotest.test_case "plan validation bounds" `Quick test_plan_validate;
    Alcotest.test_case "injector schedule" `Quick test_injector_schedule;
    Alcotest.test_case "spurious shootdowns deterministic" `Quick
      test_injector_spurious_deterministic;
    Alcotest.test_case "pool offline/online" `Quick test_offline_online_pool;
    Alcotest.test_case "pool squeeze" `Quick test_squeeze_pool;
    Alcotest.test_case "bus link degrade" `Quick test_bus_degrade;
    Alcotest.test_case "node offline drains" `Quick test_node_offline_drains;
    Alcotest.test_case "node offline rehomes threads" `Quick
      test_node_offline_rehomes_threads;
    Alcotest.test_case "spurious shootdowns harmless" `Quick
      test_spurious_shootdowns_harmless;
    Alcotest.test_case "faulted run byte-identical" `Quick
      test_faulted_run_byte_identical;
    Alcotest.test_case "squeeze forces fallback + reclaim" `Quick
      test_squeeze_forces_fallback;
    Alcotest.test_case "clean run has no robustness section" `Quick
      test_clean_run_has_no_robustness_section;
    Alcotest.test_case "bad plan rejected by create" `Quick
      test_bad_plan_rejected_by_create;
    Alcotest.test_case "checker catches undrained offline" `Quick
      test_checker_catches_undrained_offline;
    Alcotest.test_case "checker catches writable replica" `Quick
      test_checker_catches_writable_replica;
    Alcotest.test_case "checker catches non-owner mapping" `Quick
      test_checker_catches_non_owner_mapping;
    Alcotest.test_case "checker catches global via local" `Quick
      test_checker_catches_global_via_local_frame;
    Alcotest.test_case "checker sees mmu-only damage" `Quick
      test_checker_sees_mmu_only_damage;
    Alcotest.test_case "checker sees manager-only damage" `Quick
      test_checker_sees_manager_only_damage;
    Alcotest.test_case "checker sees paging-only dirty entry" `Quick
      test_checker_sees_paging_only_dirty;
    Alcotest.test_case "checker sees paging-only reading entry" `Quick
      test_checker_sees_paging_only_reading;
    Alcotest.test_case "malformed policy specs rejected" `Quick test_policy_spec_errors;
    Alcotest.test_case "valid policy specs accepted" `Quick test_policy_spec_ok;
    Alcotest.test_case "OOM is typed and observed" `Quick test_oom_is_typed_and_observed;
  ]
