(* Unit tests for the machine-independent VM layer, running over the real
   ACE pmap layer. *)

open Numa_machine
open Numa_vm

let small_config () = Config.ace ~n_cpus:4 ~local_pages_per_cpu:16 ~global_pages:32 ()

type env = {
  ops : Pmap_intf.ops;
  pool : Lpage_pool.t;
  task : Task.t;
  ctx : Fault.ctx;
  pmap_mgr : Numa_core.Pmap_manager.t;
}

let make_env ?(config = small_config ()) () =
  let policy = Numa_core.Policy.move_limit ~n_pages:config.Config.global_pages () in
  let pmap_mgr = Numa_core.Pmap_manager.create ~config ~policy () in
  let ops = Numa_core.Pmap_manager.ops pmap_mgr in
  let pool = Lpage_pool.create config ~ops in
  let task = Task.create ~ops ~id:0 ~name:"test" in
  let ctx =
    {
      Fault.ops;
      config;
      topo = Config.topology config;
      sink = Numa_core.Pmap_manager.sink pmap_mgr;
      pool;
      pageout = None;
      obs = None;
    }
  in
  { ops; pool; task; ctx; pmap_mgr }

let data_attr name =
  Region_attr.v ~name ~kind:Region_attr.Data ~sharing:Region_attr.Declared_write_shared ()

let add_region env ~name ~pages =
  let obj = Vm_object.create ~id:0 ~name ~size_pages:pages in
  Vm_map.allocate env.task.Task.map ~npages:pages ~obj ~obj_offset:0
    ~max_prot:Prot.Read_write ~attr:(data_attr name) ()

(* --- lpage pool -------------------------------------------------------- *)

let alloc pool =
  let lpage = Lpage_pool.alloc pool in
  if lpage < 0 then Alcotest.fail "pool exhausted";
  lpage

let test_pool_alloc_free () =
  let env = make_env () in
  Alcotest.(check int) "initial free" 32 (Lpage_pool.n_free env.pool);
  let p1 = alloc env.pool in
  let p2 = alloc env.pool in
  Alcotest.(check bool) "distinct pages" true (p1 <> p2);
  Alcotest.(check int) "2 allocated" 2 (Lpage_pool.n_allocated env.pool);
  Alcotest.(check bool) "is_allocated" true (Lpage_pool.is_allocated env.pool p1);
  Lpage_pool.free env.pool p1;
  Alcotest.(check bool) "freed" false (Lpage_pool.is_allocated env.pool p1);
  Alcotest.check_raises "double free" (Invalid_argument "Lpage_pool.free: double free")
    (fun () -> Lpage_pool.free env.pool p1)

let test_pool_exhaustion () =
  let env = make_env () in
  for _ = 1 to 32 do
    ignore (alloc env.pool)
  done;
  Alcotest.(check int) "exhausted" (-1) (Lpage_pool.alloc env.pool)

let test_pool_reuse_completes_cleanup () =
  let env = make_env () in
  let p = alloc env.pool in
  Lpage_pool.free env.pool p;
  (* Reallocation must run pmap_free_page_sync without error. *)
  let p' = alloc env.pool in
  ignore p';
  Alcotest.(check int) "one allocated" 1 (Lpage_pool.n_allocated env.pool)

(* --- vm_object ----------------------------------------------------------- *)

let test_object_zero_fill_then_resident () =
  let env = make_env () in
  let obj = Vm_object.create ~id:1 ~name:"obj" ~size_pages:3 in
  Alcotest.(check bool) "empty initially" true (Vm_object.slot obj ~offset:1 = Vm_object.Empty);
  let l1 = Result.get_ok (Vm_object.lpage_for obj ~pool:env.pool ~ops:env.ops ~offset:1) in
  let l1' = Result.get_ok (Vm_object.lpage_for obj ~pool:env.pool ~ops:env.ops ~offset:1) in
  Alcotest.(check int) "stable lpage" l1 l1';
  Alcotest.(check int) "one pool page used" 1 (Lpage_pool.n_allocated env.pool)

let test_object_pageout_roundtrip () =
  let env = make_env () in
  let obj = Vm_object.create ~id:1 ~name:"obj" ~size_pages:1 in
  let lpage = Result.get_ok (Vm_object.lpage_for obj ~pool:env.pool ~ops:env.ops ~offset:0) in
  env.ops.Pmap_intf.install_page ~lpage ~content:1234;
  Vm_object.page_out obj ~pool:env.pool ~ops:env.ops ~offset:0;
  Alcotest.(check bool) "paged out" true
    (Vm_object.slot obj ~offset:0 = Vm_object.Paged_out 1234);
  Alcotest.(check int) "pool page returned" 0 (Lpage_pool.n_allocated env.pool);
  (* Page back in: content restored on a fresh logical page. *)
  let lpage' = Result.get_ok (Vm_object.lpage_for obj ~pool:env.pool ~ops:env.ops ~offset:0) in
  Alcotest.(check int) "content restored" 1234
    (env.ops.Pmap_intf.extract_content ~lpage:lpage')

let test_object_resident_pages () =
  let env = make_env () in
  let obj = Vm_object.create ~id:1 ~name:"obj" ~size_pages:4 in
  ignore (Result.get_ok (Vm_object.lpage_for obj ~pool:env.pool ~ops:env.ops ~offset:0));
  ignore (Result.get_ok (Vm_object.lpage_for obj ~pool:env.pool ~ops:env.ops ~offset:2));
  Alcotest.(check int) "two resident" 2 (List.length (Vm_object.resident_pages obj))

(* --- vm_map ----------------------------------------------------------------- *)

let test_map_alloc_and_lookup () =
  let env = make_env () in
  let r1 = add_region env ~name:"a" ~pages:4 in
  let r2 = add_region env ~name:"b" ~pages:2 in
  Alcotest.(check bool) "non-overlapping auto placement" true
    (r2.Vm_map.base_vpage >= r1.Vm_map.base_vpage + 4);
  (match Vm_map.region_at env.task.Task.map ~vpage:(r1.Vm_map.base_vpage + 3) with
  | Some r -> Alcotest.(check string) "found region a" "a" r.Vm_map.attr.Region_attr.name
  | None -> Alcotest.fail "region not found");
  Alcotest.(check bool) "gap below returns none" true
    (Vm_map.region_at env.task.Task.map ~vpage:(r2.Vm_map.base_vpage + 2) = None);
  Alcotest.(check int) "two regions listed" 2
    (List.length (Vm_map.regions env.task.Task.map))

let test_map_overlap_rejected () =
  let env = make_env () in
  let _r1 = add_region env ~name:"a" ~pages:4 in
  let obj = Vm_object.create ~id:9 ~name:"clash" ~size_pages:2 in
  Alcotest.check_raises "overlap" (Invalid_argument "Vm_map.allocate: overlapping region")
    (fun () ->
      ignore
        (Vm_map.allocate env.task.Task.map ~at:2 ~npages:2 ~obj ~obj_offset:0
           ~max_prot:Prot.Read_write ~attr:(data_attr "clash") ()))

let test_map_deallocate () =
  let env = make_env () in
  let r = add_region env ~name:"a" ~pages:2 in
  Vm_map.deallocate env.task.Task.map r;
  Alcotest.(check bool) "gone" true (Vm_map.region_at env.task.Task.map ~vpage:0 = None)

let test_map_offset_translation () =
  let env = make_env () in
  let obj = Vm_object.create ~id:3 ~name:"window" ~size_pages:10 in
  let r =
    Vm_map.allocate env.task.Task.map ~at:100 ~npages:4 ~obj ~obj_offset:5
      ~max_prot:Prot.Read_write ~attr:(data_attr "w") ()
  in
  Alcotest.(check int) "offset of base" 5 (Vm_map.obj_offset_of_vpage r ~vpage:100);
  Alcotest.(check int) "offset of last" 8 (Vm_map.obj_offset_of_vpage r ~vpage:103)

(* --- fault handler -------------------------------------------------------------- *)

let test_fault_resolves_and_maps () =
  let env = make_env () in
  let r = add_region env ~name:"a" ~pages:1 in
  let v = r.Vm_map.base_vpage in
  Alcotest.(check bool) "not resident before" true
    (env.ops.Pmap_intf.resident ~pmap:env.task.Task.pmap ~cpu:0 ~vpage:v = None);
  (match Fault.handle env.ctx env.task ~cpu:0 ~vpage:v ~access:Access.Store with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fault failed: %s" (Fault.error_to_string e));
  match env.ops.Pmap_intf.resident ~pmap:env.task.Task.pmap ~cpu:0 ~vpage:v with
  | Some (prot, where) ->
      Alcotest.(check bool) "writable" true (Prot.allows prot Access.Store);
      Alcotest.(check bool) "placed local (first touch)" true
        (where = Location.Local_here)
  | None -> Alcotest.fail "still not resident"

let test_fault_no_region () =
  let env = make_env () in
  match Fault.handle env.ctx env.task ~cpu:0 ~vpage:999 ~access:Access.Load with
  | Error Fault.No_region -> ()
  | Ok () | Error _ -> Alcotest.fail "expected No_region"

let test_fault_protection_violation () =
  let env = make_env () in
  let obj = Vm_object.create ~id:4 ~name:"code" ~size_pages:1 in
  let attr =
    Region_attr.v ~name:"code" ~kind:Region_attr.Code
      ~sharing:Region_attr.Declared_read_shared ()
  in
  let r =
    Vm_map.allocate env.task.Task.map ~npages:1 ~obj ~obj_offset:0
      ~max_prot:Prot.Read_only ~attr ()
  in
  (match Fault.handle env.ctx env.task ~cpu:0 ~vpage:r.Vm_map.base_vpage ~access:Access.Store with
  | Error Fault.Protection_violation -> ()
  | Ok () | Error _ -> Alcotest.fail "expected Protection_violation");
  (* Reads are fine. *)
  match Fault.handle env.ctx env.task ~cpu:0 ~vpage:r.Vm_map.base_vpage ~access:Access.Load with
  | Ok () -> ()
  | Error e -> Alcotest.failf "read fault failed: %s" (Fault.error_to_string e)

let test_fault_charges_trap_cost () =
  let env = make_env () in
  let r = add_region env ~name:"a" ~pages:1 in
  ignore (Fault.handle env.ctx env.task ~cpu:2 ~vpage:r.Vm_map.base_vpage ~access:Access.Load);
  let charged = Cost_sink.pending env.ctx.Fault.sink ~cpu:2 in
  Alcotest.(check bool) "at least the trap cost" true
    (charged >= Cost.fault_trap_ns env.ctx.Fault.config)

let test_fault_out_of_memory () =
  let config = Config.ace ~n_cpus:2 ~local_pages_per_cpu:8 ~global_pages:2 () in
  let env = make_env ~config () in
  let r = add_region env ~name:"big" ~pages:3 in
  let v = r.Vm_map.base_vpage in
  ignore (Fault.handle env.ctx env.task ~cpu:0 ~vpage:v ~access:Access.Store);
  ignore (Fault.handle env.ctx env.task ~cpu:0 ~vpage:(v + 1) ~access:Access.Store);
  match Fault.handle env.ctx env.task ~cpu:0 ~vpage:(v + 2) ~access:Access.Store with
  | Error Fault.Out_of_memory -> ()
  | Ok () | Error _ -> Alcotest.fail "expected Out_of_memory"

(* --- task ------------------------------------------------------------------------ *)

let test_task_destroy_drops_mappings () =
  let env = make_env () in
  let r = add_region env ~name:"a" ~pages:1 in
  ignore (Fault.handle env.ctx env.task ~cpu:0 ~vpage:r.Vm_map.base_vpage ~access:Access.Load);
  Alcotest.(check bool) "resident" true
    (env.ops.Pmap_intf.resident ~pmap:env.task.Task.pmap ~cpu:0 ~vpage:r.Vm_map.base_vpage
    <> None);
  Task.destroy ~ops:env.ops env.task;
  Alcotest.(check int) "mmu empty" 0
    (Mmu.n_mappings (Numa_core.Pmap_manager.mmu env.pmap_mgr))

let suite =
  [
    Alcotest.test_case "pool alloc/free" `Quick test_pool_alloc_free;
    Alcotest.test_case "pool exhaustion" `Quick test_pool_exhaustion;
    Alcotest.test_case "pool reuse after free" `Quick test_pool_reuse_completes_cleanup;
    Alcotest.test_case "object zero-fill residency" `Quick test_object_zero_fill_then_resident;
    Alcotest.test_case "object pageout round trip" `Quick test_object_pageout_roundtrip;
    Alcotest.test_case "object resident pages" `Quick test_object_resident_pages;
    Alcotest.test_case "map alloc and lookup" `Quick test_map_alloc_and_lookup;
    Alcotest.test_case "map overlap rejected" `Quick test_map_overlap_rejected;
    Alcotest.test_case "map deallocate" `Quick test_map_deallocate;
    Alcotest.test_case "map offset translation" `Quick test_map_offset_translation;
    Alcotest.test_case "fault resolves and maps" `Quick test_fault_resolves_and_maps;
    Alcotest.test_case "fault on unmapped address" `Quick test_fault_no_region;
    Alcotest.test_case "fault protection violation" `Quick test_fault_protection_violation;
    Alcotest.test_case "fault charges trap cost" `Quick test_fault_charges_trap_cost;
    Alcotest.test_case "fault out of memory" `Quick test_fault_out_of_memory;
    Alcotest.test_case "task destroy drops mappings" `Quick test_task_destroy_drops_mappings;
  ]
