(* Multi-task support: separate address spaces, shared memory objects
   (Mach named memory), and cross-task NUMA behaviour. *)

open Numa_machine
module System = Numa_system.System
module Report = Numa_system.Report
module Api = Numa_sim.Api
module Region_attr = Numa_vm.Region_attr
module Manager = Numa_core.Numa_manager

let small_config () = Config.ace ~n_cpus:4 ~local_pages_per_cpu:64 ~global_pages:256 ()

let test_tasks_have_separate_address_spaces () =
  let sys = System.create ~config:(small_config ()) () in
  let other = System.create_task sys ~name:"other" in
  let a =
    System.alloc_region sys ~name:"a" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:1 ()
  in
  let b =
    System.alloc_region sys ~task:other ~name:"b" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_private ~pages:1 ()
  in
  (* Both maps start at address 0: same vpage, different regions. *)
  Alcotest.(check int) "overlapping virtual addresses" a.System.base_vpage
    b.System.base_vpage;
  let seen_a = ref (-1) and seen_b = ref (-1) in
  ignore
    (System.spawn sys ~cpu:0 ~name:"ta" (fun ~stack_vpage:_ ->
         Api.write ~value:11 a.System.base_vpage;
         seen_a := Api.read_value a.System.base_vpage));
  ignore
    (System.spawn sys ~cpu:1 ~task:other ~name:"tb" (fun ~stack_vpage:_ ->
         Api.write ~value:22 b.System.base_vpage;
         seen_b := Api.read_value b.System.base_vpage));
  ignore (System.run sys);
  (* Isolation: each task saw only its own value. *)
  Alcotest.(check int) "task A value" 11 !seen_a;
  Alcotest.(check int) "task B value" 22 !seen_b;
  (* Distinct logical pages back the same virtual address. *)
  let la = Option.get (System.lpage_of sys ~vpage:a.System.base_vpage ()) in
  let lb = Option.get (System.lpage_of sys ~task:other ~vpage:b.System.base_vpage ()) in
  Alcotest.(check bool) "distinct backing pages" true (la <> lb);
  match Numa_core.Invariant.result (System.audit sys) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariants: %s" msg

let test_shared_object_across_tasks () =
  let sys = System.create ~config:(small_config ()) () in
  let other = System.create_task sys ~name:"other" in
  let shared =
    System.alloc_region sys ~name:"shm" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_write_shared ~pages:1 ()
  in
  let view = System.map_shared sys ~into:other shared in
  (* Same memory object: one logical page once both touch it. *)
  let seen = ref (-1) in
  (* No cross-task barrier: stagger with compute so the write lands first. *)
  ignore
    (System.spawn sys ~cpu:0 ~name:"producer" (fun ~stack_vpage:_ ->
         Api.write ~value:4321 shared.System.base_vpage));
  ignore
    (System.spawn sys ~cpu:1 ~task:other ~name:"consumer" (fun ~stack_vpage:_ ->
         Api.compute 50_000_000. (* well past the producer's write *);
         seen := Api.read_value view.System.base_vpage));
  ignore (System.run sys);
  Alcotest.(check int) "value crosses the task boundary" 4321 !seen;
  let lp = Option.get (System.lpage_of sys ~vpage:shared.System.base_vpage ()) in
  let lv = Option.get (System.lpage_of sys ~task:other ~vpage:view.System.base_vpage ()) in
  Alcotest.(check int) "one logical page, two mappings" lp lv;
  match Numa_core.Invariant.result (System.audit sys) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariants: %s" msg

let test_cross_task_ping_pong_pins () =
  (* Write sharing across tasks drives the same protocol as across
     threads: the shared page must migrate and pin. *)
  let sys =
    System.create ~policy:(System.Move_limit { threshold = 1 }) ~config:(small_config ())
      ()
  in
  let other = System.create_task sys ~name:"other" in
  let shared =
    System.alloc_region sys ~name:"shm" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_write_shared ~pages:1 ()
  in
  let view = System.map_shared sys ~into:other shared in
  (* Alternate writes, staggered in time (no cross-task barriers). *)
  ignore
    (System.spawn sys ~cpu:0 ~name:"a" (fun ~stack_vpage:_ ->
         for _round = 1 to 6 do
           Api.write shared.System.base_vpage;
           Api.compute 10_000_000.
         done));
  ignore
    (System.spawn sys ~cpu:1 ~task:other ~name:"b" (fun ~stack_vpage:_ ->
         Api.compute 5_000_000.;
         for _round = 1 to 6 do
           Api.write view.System.base_vpage;
           Api.compute 10_000_000.
         done));
  let report = System.run sys in
  let lp = Option.get (System.lpage_of sys ~vpage:shared.System.base_vpage ()) in
  (match Manager.state_of (System.numa_manager sys) ~lpage:lp with
  | Manager.Global_writable -> ()
  | st -> Alcotest.failf "expected pinned shared page, got %a" Manager.pp_state st);
  Alcotest.(check bool) "moves were counted across tasks" true
    (report.Report.numa_moves >= 2);
  match Numa_core.Invariant.result (System.audit sys) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariants: %s" msg

let suite =
  [
    Alcotest.test_case "separate address spaces" `Quick
      test_tasks_have_separate_address_spaces;
    Alcotest.test_case "shared object across tasks" `Quick test_shared_object_across_tasks;
    Alcotest.test_case "cross-task ping-pong pins" `Quick test_cross_task_ping_pong_pins;
  ]
