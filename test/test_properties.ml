(* Property-based tests (qcheck) on the protocol core and the full system:
   coherence against a flat reference memory, directory invariants under
   random operation sequences, and model/DP sanity. *)

open Numa_machine
open Numa_core

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- random pmap-level workloads ------------------------------------------ *)

type op = Op_read of int * int | Op_write of int * int * int | Op_free of int
(* (cpu, lpage[, value]) over a small machine. *)

let n_cpus = 4
let n_pages = 6

let op_gen =
  let open QCheck.Gen in
  let cpu = int_bound (n_cpus - 1) and lpage = int_bound (n_pages - 1) in
  frequency
    [
      (5, map2 (fun c l -> Op_read (c, l)) cpu lpage);
      (5, map3 (fun c l v -> Op_write (c, l, v)) cpu lpage (int_bound 10_000));
      (1, map (fun l -> Op_free l) lpage);
    ]

let op_print = function
  | Op_read (c, l) -> Printf.sprintf "read(cpu%d, p%d)" c l
  | Op_write (c, l, v) -> Printf.sprintf "write(cpu%d, p%d, %d)" c l v
  | Op_free l -> Printf.sprintf "free(p%d)" l

let ops_arbitrary =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map op_print l))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

(* Drive a random operation sequence through the real pmap layer, mirroring
   it against a flat memory; after every step, contents must agree and the
   directory invariants must hold. *)
let run_against_reference ~policy ops =
  let config =
    Config.ace ~n_cpus ~local_pages_per_cpu:4 (* small: exercises fallback *)
      ~global_pages:n_pages ()
  in
  let mgr = Pmap_manager.create ~config ~policy:(policy ~n_pages) () in
  let pmap_ops = Pmap_manager.ops mgr in
  let pmap = pmap_ops.Numa_vm.Pmap_intf.pmap_create ~name:"prop" in
  let reference = Array.make n_pages 0 in
  let freed = Array.make n_pages false in
  let ensure ~cpu ~lpage ~access =
    (* Fault loop, as the machine-independent handler would do. *)
    let rec go n =
      if n > 3 then failwith "no convergence";
      match pmap_ops.Numa_vm.Pmap_intf.resident ~pmap ~cpu ~vpage:lpage with
      | Some (prot, _) when Prot.allows prot access -> ()
      | Some _ | None ->
          pmap_ops.Numa_vm.Pmap_intf.enter ~pmap ~cpu ~vpage:lpage ~lpage
            ~min_prot:(Prot.of_access access) ~max_prot:Prot.Read_write;
          go (n + 1)
    in
    go 0
  in
  let ok = ref true in
  let check_step () =
    (* The full cross-layer sweep: directory vs MMU vs frame pools. *)
    let pol = Pmap_manager.policy mgr in
    let rep =
      Invariant.check ~pinned:pol.Policy.is_pinned
        ~manager:(Pmap_manager.manager mgr)
        ~mmu:(Pmap_manager.mmu mgr)
        ~frames:(Pmap_manager.frames mgr)
        ~config ()
    in
    match Invariant.result rep with
    | Ok () -> ()
    | Error msg -> QCheck.Test.fail_reportf "invariant sweep: %s" msg
  in
  List.iter
    (fun op ->
      (match op with
      | Op_read (cpu, lpage) ->
          if freed.(lpage) then begin
            (* Page was freed: reallocate it fresh (content resets). *)
            freed.(lpage) <- false;
            reference.(lpage) <- 0;
            pmap_ops.Numa_vm.Pmap_intf.zero_page ~lpage
          end;
          ensure ~cpu ~lpage ~access:Access.Load;
          let got = pmap_ops.Numa_vm.Pmap_intf.read_slot ~pmap ~cpu ~vpage:lpage in
          if got <> reference.(lpage) then begin
            ok := false;
            QCheck.Test.fail_reportf "cpu%d read %d from p%d, expected %d" cpu got lpage
              reference.(lpage)
          end
      | Op_write (cpu, lpage, v) ->
          if freed.(lpage) then begin
            freed.(lpage) <- false;
            reference.(lpage) <- 0;
            pmap_ops.Numa_vm.Pmap_intf.zero_page ~lpage
          end;
          ensure ~cpu ~lpage ~access:Access.Store;
          pmap_ops.Numa_vm.Pmap_intf.write_slot ~pmap ~cpu ~vpage:lpage v;
          reference.(lpage) <- v
      | Op_free lpage ->
          if not freed.(lpage) then begin
            let tag = pmap_ops.Numa_vm.Pmap_intf.free_page ~lpage in
            pmap_ops.Numa_vm.Pmap_intf.free_page_sync tag;
            freed.(lpage) <- true
          end);
      check_step ())
    ops;
  !ok

let prop_coherence_move_limit =
  QCheck.Test.make ~name:"coherence under move-limit(2)" ~count:150 ops_arbitrary
    (run_against_reference ~policy:(fun ~n_pages -> Policy.move_limit ~threshold:2 ~n_pages ()))

let prop_coherence_all_global =
  QCheck.Test.make ~name:"coherence under all-global" ~count:75 ops_arbitrary
    (run_against_reference ~policy:(fun ~n_pages ->
         ignore n_pages;
         Policy.all_global ()))

let prop_coherence_never_pin =
  QCheck.Test.make ~name:"coherence under never-pin" ~count:75 ops_arbitrary
    (run_against_reference ~policy:(fun ~n_pages ->
         ignore n_pages;
         Policy.never_pin ()))

let prop_coherence_random_policy =
  QCheck.Test.make ~name:"coherence under random placement" ~count:75 ops_arbitrary
    (run_against_reference ~policy:(fun ~n_pages ->
         Policy.random ~prng:(Numa_util.Prng.create ~seed:99L) ~p_global:0.4 ~n_pages))

(* --- each page's copies against its copy events ------------------------------ *)

(* The directory looks a page's copies up by node and lists them in the
   iteration order of a per-page hash table, the order of [Replica_flush]
   events. A sink mirrors the copy events into such a table per page. On 7
   CPUs nodes 2 and 6 share a bucket of it, and so do nodes 4 and 5, so a
   copy dropped and made again reorders the list. After every op, for every
   page, the directory's list must be the mirror's fold and its lookups must
   find exactly the mirror's nodes. Pools of 2 frames force fallbacks. *)
let copies_cpus = 7

let copies_ops_arbitrary =
  let open QCheck.Gen in
  let cpu = int_bound (copies_cpus - 1) and lpage = int_bound (n_pages - 1) in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map op_print l))
    (list_size (int_range 1 120)
       (frequency
          [
            (5, map2 (fun c l -> Op_read (c, l)) cpu lpage);
            (3, map2 (fun c l -> Op_write (c, l, 0)) cpu lpage);
            (1, map (fun l -> Op_free l) lpage);
          ]))

let prop_copies_follow_events =
  QCheck.Test.make ~name:"each page's copies follow its copy events" ~count:150
    copies_ops_arbitrary (fun ops ->
      let config =
        Config.ace ~n_cpus:copies_cpus ~local_pages_per_cpu:2 ~global_pages:n_pages ()
      in
      (* Unseeded even under OCAMLRUNPARAM=R: its order is compared. *)
      let mirror = Array.init n_pages (fun _ -> Hashtbl.create ~random:false 4) in
      let obs = Numa_obs.Hub.create () in
      Numa_obs.Hub.attach obs ~name:"copies" (fun ~ts:_ -> function
        | Numa_obs.Event.Replica_create { lpage; node } ->
            Hashtbl.replace mirror.(lpage) node ()
        | Numa_obs.Event.Replica_flush { lpage; node } -> Hashtbl.remove mirror.(lpage) node
        | Numa_obs.Event.Page_freed { lpage; _ } -> Hashtbl.reset mirror.(lpage)
        | _ -> ());
      let mgr =
        Pmap_manager.create ~obs ~config
          ~policy:(Policy.move_limit ~threshold:2 ~n_pages ())
          ()
      in
      let manager = Pmap_manager.manager mgr in
      let pmap_ops = Pmap_manager.ops mgr in
      let pmap = pmap_ops.Numa_vm.Pmap_intf.pmap_create ~name:"copies" in
      let fault ~cpu ~lpage access =
        let rec go n =
          if n > 3 then failwith "no convergence";
          match pmap_ops.Numa_vm.Pmap_intf.resident ~pmap ~cpu ~vpage:lpage with
          | Some (prot, _) when Prot.allows prot access -> ()
          | Some _ | None ->
              pmap_ops.Numa_vm.Pmap_intf.enter ~pmap ~cpu ~vpage:lpage ~lpage
                ~min_prot:(Prot.of_access access) ~max_prot:Prot.Read_write;
              go (n + 1)
        in
        go 0
      in
      List.iter
        (fun op ->
          (match op with
          | Op_read (cpu, lpage) -> fault ~cpu ~lpage Access.Load
          | Op_write (cpu, lpage, _) -> fault ~cpu ~lpage Access.Store
          | Op_free lpage ->
              pmap_ops.Numa_vm.Pmap_intf.free_page_sync
                (pmap_ops.Numa_vm.Pmap_intf.free_page ~lpage));
          for lpage = 0 to n_pages - 1 do
            let expected = Hashtbl.fold (fun node () acc -> node :: acc) mirror.(lpage) [] in
            let got = Numa_manager.replica_nodes manager ~lpage in
            if got <> expected then
              QCheck.Test.fail_reportf "after %s, p%d lists [%s], its events [%s]"
                (op_print op) lpage
                (String.concat ";" (List.map string_of_int got))
                (String.concat ";" (List.map string_of_int expected));
            for node = 0 to copies_cpus - 1 do
              if
                Option.is_some (Numa_manager.replica_frame manager ~lpage ~node)
                <> Hashtbl.mem mirror.(lpage) node
              then
                QCheck.Test.fail_reportf "after %s, p%d's lookup on node %d disagrees"
                  (op_print op) lpage node
            done
          done)
        ops;
      true)

(* --- engine-level coherence over the full system ---------------------------- *)

let prop_system_coherence =
  (* Random per-thread write/read scripts on shared pages with barrier
     separation: after each barrier, readers must observe the last write of
     the previous phase. *)
  QCheck.Test.make ~name:"engine + numa coherence across barriers" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, nthreads) ->
      let module System = Numa_system.System in
      let module Api = Numa_sim.Api in
      let config = Config.ace ~n_cpus:nthreads ~local_pages_per_cpu:32 ~global_pages:64 () in
      let sys = System.create ~config () in
      let data =
        System.alloc_region sys ~name:"d" ~kind:Numa_vm.Region_attr.Data
          ~sharing:Numa_vm.Region_attr.Declared_write_shared ~pages:2 ()
      in
      let barrier = System.make_barrier sys ~name:"b" ~parties:nthreads in
      let rounds = 6 in
      let failures = ref 0 in
      for i = 0 to nthreads - 1 do
        ignore
          (System.spawn sys ~cpu:i ~name:(Printf.sprintf "t%d" i)
             (fun ~stack_vpage:_ ->
               for round = 1 to rounds do
                 (* One deterministic writer per round. *)
                 let writer = (round + seed) mod nthreads in
                 let value = (round * 1000) + writer in
                 if i = writer then Api.write ~value data.System.base_vpage;
                 Api.barrier barrier;
                 let got = Api.read_value data.System.base_vpage in
                 if got <> value then incr failures;
                 Api.barrier barrier
               done))
      done;
      ignore (System.run sys);
      (match Numa_core.Invariant.result (System.audit sys) with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "invariant sweep: %s" msg);
      !failures = 0)

let prop_app_policy_topology_coherent =
  (* Any Table 4 application, under any builtin policy, on any builtin
     topology, with any page-table mode, run paranoid (the invariant sweep
     fires from the daemon tick and once more at the end): zero violations,
     always. The page-table axis adds the master-vs-MMU and
     replica-vs-master relations to everything the sweep already checks. *)
  QCheck.Test.make ~name:"app x policy x topology x pt-mode stays coherent" ~count:12
    QCheck.(quad (int_bound 3) (int_bound 20) (int_bound 3) (int_bound 3))
    (fun (ai, pi, ti, mi) ->
      let module System = Numa_system.System in
      let module Report = Numa_system.Report in
      let app_name = List.nth [ "imatmult"; "primes3"; "gfetch"; "plytrace" ] ai in
      let app = Option.get (Numa_apps.Registry.find app_name) in
      let specs = System.builtin_policy_specs in
      let policy = List.nth specs (pi mod List.length specs) in
      let topo_name = List.nth Config.builtin_topologies ti in
      let pt_mode =
        List.nth [ Pt.Off; Pt.Shared; Pt.Replicated None; Pt.Replicated (Some 2) ] mi
      in
      let config = Option.get (Config.of_topology_name ~n_cpus:4 topo_name) in
      let sys = System.create ~policy ~paranoid:true ~pt_mode ~config () in
      app.Numa_apps.App_sig.setup sys
        { Numa_apps.App_sig.nthreads = 4; scale = 0.02; seed = 42L };
      let r = System.run sys in
      match r.Report.robustness with
      | Some rb ->
          if rb.Report.invariant_violations > 0 then
            QCheck.Test.fail_reportf "%s under %s on %s with pt-mode %s: %d violations (%s)"
              app_name
              (System.policy_spec_name policy)
              topo_name (Pt.mode_to_string pt_mode) rb.Report.invariant_violations
              (match rb.Report.first_violations with v :: _ -> v | [] -> "?")
          else rb.Report.invariant_checks > 0
      | None -> QCheck.Test.fail_reportf "paranoid run lost its robustness section")

(* --- the page-marking audit against the exhaustive sweep -------------------- *)

(* Damage planted after a run. The first four are aimed at pages only one
   layer holds (an untouched page, a page on the free list, a page whose
   mappings were shot down), the last at a replica page table. *)
type plant = Plant_mapping | Plant_dirty | Plant_reading | Plant_stranded | Plant_stale_pte

let plant_name = function
  | Plant_mapping -> "mapping"
  | Plant_dirty -> "dirty"
  | Plant_reading -> "reading"
  | Plant_stranded -> "stranded"
  | Plant_stale_pte -> "stale-pte"

let describe_report (r : Invariant.report) =
  Printf.sprintf "pages %d, mappings %d, replicas %d, paging %d, pt %d, violations [%s]"
    r.pages_checked r.mappings_checked r.replicas_checked r.paging_checked r.pt_checked
    (String.concat "; " r.violations)

(* [Invariant.check] must report exactly what the exhaustive sweep
   reports, counts included, at every audit of a paranoid run and on
   every planted corruption after it. The audit rides the system's
   component, which replaces serve's own: the property needs only the
   protocol state. *)
let prop_marked_audit_matches_oracle =
  let module System = Numa_system.System in
  let module Runner = Numa_metrics.Runner in
  let gen =
    let open QCheck.Gen in
    tup6
      (oneofl (Numa_apps.Registry.table3 @ [ Numa_apps.Serve.app ]))
      (oneofl System.builtin_policy_specs)
      (oneofl [ Pt.Off; Pt.Shared; Pt.Replicated None; Pt.Replicated (Some 1) ])
      (oneofl
         [
           "";
           "node-offline:1@2";
           "node-offline:1@1,node-online:1@3";
           "frame-squeeze:0:0.5@1";
           "spurious-shootdown:0.5";
           "stale-pte:0@2";
         ])
      (oneofl [ None; Some 12 ])
      (list_size (int_range 1 3)
         (pair
            (oneofl
               [ Plant_mapping; Plant_dirty; Plant_reading; Plant_stranded; Plant_stale_pte ])
            (int_bound 10_000)))
  in
  let print ((app : Numa_apps.App_sig.t), policy, pt_mode, plan, pages, plants) =
    Printf.sprintf "%s policy=%s pt=%s faults=%S pages=%s plants=[%s]" app.name
      (System.policy_spec_name policy) (Pt.mode_to_string pt_mode) plan
      (match pages with Some n -> string_of_int n | None -> "ample")
      (String.concat "; "
         (List.map (fun (p, k) -> Printf.sprintf "%s/%d" (plant_name p) k) plants))
  in
  QCheck.Test.make ~name:"page-marking audit equals the exhaustive sweep" ~count:24
    (QCheck.make ~print gen)
    (fun (app, policy, pt_mode, plan, pages, plants) ->
      let faults =
        match Numa_faults.Plan.of_string plan with
        | Ok p -> p
        | Error e -> QCheck.Test.fail_reportf "plan %S: %s" plan e
      in
      let config_tweak c =
        match pages with Some n -> { c with Config.global_pages = n } | None -> c
      in
      let spec =
        {
          Runner.default_spec with
          Runner.policy;
          scale = 0.02;
          n_cpus = 4;
          nthreads = 4;
          paranoid = true;
          faults;
          pt_mode;
          config_tweak;
        }
      in
      let sys = Runner.system app spec in
      let pmap_mgr = System.pmap_manager sys in
      let manager = Pmap_manager.manager pmap_mgr and mmu = Pmap_manager.mmu pmap_mgr in
      let frames = Pmap_manager.frames pmap_mgr and config = System.config sys in
      let pool = System.pool sys in
      let compare_checkers () =
        let pinned = (System.policy sys).Policy.is_pinned in
        let live = Invariant.check ~pinned ~pool ~manager ~mmu ~frames ~config () in
        let oracle = Invariant_oracle.check ~pinned ~pool ~manager ~mmu ~frames ~config () in
        if live = oracle then None
        else Some (describe_report live, describe_report oracle)
      in
      let audits = ref 0 and mismatch = ref None in
      System.set_component sys
        {
          System.on_fault = ignore;
          audit =
            Some
              (fun () ->
                incr audits;
                if !mismatch = None then mismatch := compare_checkers ();
                []);
          report = Fun.id;
        };
      ignore (System.run sys);
      let fail_on ~at = function
        | None -> ()
        | Some (live, oracle) ->
            QCheck.Test.fail_reportf "%s:\n  marked: %s\n  oracle: %s" at live oracle
      in
      fail_on ~at:"during the run" !mismatch;
      if !audits = 0 then QCheck.Test.fail_reportf "the paranoid run never audited";
      let n_pages = config.Config.global_pages in
      (* The [k]-th page (cyclically) satisfying [p], or page [k] if none does. *)
      let pick k p =
        match List.filter p (List.init n_pages Fun.id) with
        | [] -> k mod n_pages
        | l -> List.nth l (k mod List.length l)
      in
      let untouched lpage = Numa_manager.state_of manager ~lpage = Numa_manager.Untouched in
      let touched lpage = not (untouched lpage) in
      let free lpage = not (Numa_vm.Lpage_pool.is_allocated pool lpage) in
      let paging = Option.get (Frame_table.paging frames) in
      let plant (kind, k) =
        match kind with
        | Plant_mapping ->
            let lpage = pick k untouched in
            Mmu.enter mmu ~pmap:(System.task sys).Numa_vm.Task.pmap ~cpu:(k mod 4)
              ~vpage:lpage ~lpage ~prot:Prot.Read_only ~phys:(Mmu.Global_frame lpage)
        | Plant_dirty -> Frame_table.write_global frames ~lpage:(pick k free) 1
        | Plant_reading -> (
            let lpage = pick k free in
            match Paging.state paging ~lpage with
            | Paging.Empty | Paging.Dirty -> Paging.begin_read paging ~lpage
            | Paging.Reading | Paging.Clean | Paging.Writeback -> ())
        | Plant_stranded ->
            let lpage = pick k touched in
            ignore (Numa_manager.spurious_shootdown manager ~lpage);
            let node =
              match Numa_manager.replica_nodes manager ~lpage with
              | node :: _ -> node
              | [] -> k mod Topo.cpu_nodes (System.topo sys)
            in
            Frame_table.set_node_online frames ~node false
        | Plant_stale_pte -> (
            match Mmu.pt mmu with
            | Some pt -> ignore (Pt.corrupt_replica pt ~lpage:(pick k touched))
            | None -> ())
      in
      List.iter
        (fun (kind, k) ->
          plant (kind, k);
          fail_on ~at:("after planting " ^ plant_name kind) (compare_checkers ()))
        plants;
      true)

(* --- model sanity --------------------------------------------------------------- *)

let prop_model_roundtrip =
  (* Solving equations 4/5 on times generated from equation 2 recovers the
     original alpha and beta. *)
  QCheck.Test.make ~name:"alpha/beta solve inverts equation 2" ~count:300
    QCheck.(triple (float_bound_inclusive 1.0) (float_bound_inclusive 1.0) pos_float)
    (fun (a0, b0, t_local_raw) ->
      QCheck.assume (t_local_raw > 1e-3 && t_local_raw < 1e12);
      QCheck.assume (b0 > 0.01);
      let gl = 2.0 in
      let t_local = t_local_raw in
      let t_numa = Numa_metrics.Model.predicted_t_numa ~t_local ~alpha:a0 ~beta:b0 ~gl in
      let t_global = Numa_metrics.Model.predicted_t_numa ~t_local ~alpha:0. ~beta:b0 ~gl in
      QCheck.assume (t_global -. t_local > 1e-9 *. t_local);
      let times = { Numa_metrics.Model.t_global; t_numa; t_local } in
      let alpha' = Numa_metrics.Model.alpha times in
      let beta' = Numa_metrics.Model.beta times ~gl in
      Float.abs (alpha' -. a0) < 1e-6 && Float.abs (beta' -. b0) < 1e-6)

(* --- offline DP sanity ------------------------------------------------------------ *)

let trace_events_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (map2
         (fun cpu is_write ->
           {
             Numa_system.System.at = 0.;
             cpu;
             tid = cpu;
             vpage = 0;
             kind = (if is_write then Access.Store else Access.Load);
             count = 8;
             where = Location.In_global;
             region = "p";
           })
         (int_bound 3) bool))

let prop_optimal_bounded =
  (* The DP optimum never beats the absolute lower bound (every reference
     local, zero protocol cost) and never loses to serving everything in
     global memory (a legal strategy whose cost it could always choose). *)
  QCheck.Test.make ~name:"offline DP between local and global bounds" ~count:150
    (QCheck.make trace_events_gen)
    (fun events ->
      let config = Config.ace ~n_cpus:4 () in
      let opt = Numa_trace.Optimal.page_optimal_ns ~config events in
      let cost_at where =
        List.fold_left
          (fun acc (e : Numa_system.System.access_event) ->
            acc
            +. Cost.references_ns config ~access:e.Numa_system.System.kind ~where
                 ~count:e.Numa_system.System.count)
          0. events
      in
      let lower = cost_at Location.Local_here in
      let global_strategy =
        (* zero-fill in global + every reference global + one pmap action *)
        cost_at Location.In_global
        +. Cost.page_zero_ns config ~dst:Location.In_global
        +. Cost.pmap_action_ns config
      in
      opt >= lower -. 1e-6 && opt <= global_strategy +. 1e-6)

(* --- layout properties -------------------------------------------------------- *)

let obj_gen =
  QCheck.Gen.(
    map3
      (fun words cls owner ->
        let sharing =
          match cls with
          | 0 -> Numa_vm.Region_attr.Declared_private
          | 1 -> Numa_vm.Region_attr.Declared_read_shared
          | _ -> Numa_vm.Region_attr.Declared_write_shared
        in
        (words + 1, sharing, owner))
      (int_bound 900) (int_bound 2) (int_bound 3))

let prop_segregated_never_mixes_classes =
  QCheck.Test.make ~name:"segregated layout never colocates sharing classes" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) obj_gen))
    (fun raw ->
      let objects =
        List.mapi
          (fun i (words, sharing, owner) ->
            Numa_lang.Layout.obj ~owner ~name:(Printf.sprintf "o%d" i) ~words ~sharing ())
          raw
      in
      let page_words = 512 in
      let plan = Numa_lang.Layout.segregated ~page_words objects in
      (* Map every word of every object to (region, page); no page may hold
         two different sharing classes, and private pages may not hold two
         different owners. *)
      let page_class = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun (p : Numa_lang.Layout.placement) ->
          let o = p.Numa_lang.Layout.p_obj in
          let first = p.Numa_lang.Layout.p_offset_words / page_words in
          let last = (p.Numa_lang.Layout.p_offset_words + o.Numa_lang.Layout.o_words - 1) / page_words in
          for pg = first to last do
            let key = (p.Numa_lang.Layout.p_region, pg) in
            let cls = (o.Numa_lang.Layout.o_sharing, o.Numa_lang.Layout.o_owner) in
            let cls =
              (* Only private pages are owner-distinguished. *)
              match o.Numa_lang.Layout.o_sharing with
              | Numa_vm.Region_attr.Declared_private -> cls
              | Numa_vm.Region_attr.Declared_read_shared
              | Numa_vm.Region_attr.Declared_write_shared ->
                  (o.Numa_lang.Layout.o_sharing, None)
            in
            match Hashtbl.find_opt page_class key with
            | None -> Hashtbl.replace page_class key cls
            | Some existing -> if existing <> cls then ok := false
          done)
        plan.Numa_lang.Layout.placements;
      !ok)

(* --- DP monotonicity ------------------------------------------------------------ *)

let prop_optimal_monotone_in_events =
  QCheck.Test.make ~name:"offline DP cost is monotone in the event list" ~count:100
    (QCheck.make trace_events_gen)
    (fun events ->
      let config = Config.ace ~n_cpus:4 () in
      let costs =
        List.mapi
          (fun i _ ->
            let prefix = List.filteri (fun j _ -> j <= i) events in
            Numa_trace.Optimal.page_optimal_ns ~config prefix)
          events
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-6 && non_decreasing rest
        | [ _ ] | [] -> true
      in
      non_decreasing costs)

(* --- replay determinism ------------------------------------------------------------ *)

let prop_replay_deterministic =
  QCheck.Test.make ~name:"trace replay is deterministic" ~count:30
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, nthreads) ->
      let module System = Numa_system.System in
      let module Api = Numa_sim.Api in
      let config = Config.ace ~n_cpus:nthreads ~local_pages_per_cpu:32 ~global_pages:64 () in
      let sys = System.create ~config () in
      let buffer = Numa_trace.Trace_buffer.create () in
      Numa_trace.Trace_buffer.attach buffer sys;
      let data =
        System.alloc_region sys ~name:"d" ~kind:Numa_vm.Region_attr.Data
          ~sharing:Numa_vm.Region_attr.Declared_write_shared ~pages:2 ()
      in
      for i = 0 to nthreads - 1 do
        ignore
          (System.spawn sys ~cpu:i ~name:(string_of_int i) (fun ~stack_vpage:_ ->
               for r = 1 to 8 do
                 Api.write ~count:((seed mod 7) + r) (data.System.base_vpage + (r mod 2));
                 Api.compute 1e4
               done))
      done;
      ignore (System.run sys);
      let run () =
        Numa_trace.Replay.replay ~config ~policy:(System.Move_limit { threshold = 2 }) buffer
      in
      run () = run ())

(* --- request conservation under random resilience configs ------------------------- *)

(* Whatever mix of deadline/retry/hedge/breaker is armed and whatever the
   machine does underneath, every arrived request must resolve to exactly
   one of {in-deadline, timed-out, shed} — the ledger's sweep runs under
   paranoid mode and its findings land in the report. *)
let prop_resilience_conserves_requests =
  let module R = Numa_apps.Resilience in
  let module Runner = Numa_metrics.Runner in
  let module Report = Numa_system.Report in
  let gen =
    let open QCheck.Gen in
    let retry =
      oneof
        [
          return None;
          map2
            (fun attempts jitter ->
              Some
                {
                  R.max_attempts = attempts;
                  base_backoff_ns = 0.2e6;
                  max_backoff_ns = 2e6;
                  jitter;
                })
            (int_range 1 4) (float_bound_inclusive 1.0);
        ]
    in
    let hedge =
      oneof
        [ return None; map (fun f -> Some { R.factor = f }) (float_range 0.5 2.) ]
    in
    let breaker =
      oneof
        [
          return None;
          map (fun n -> Some { R.failures = n; cooldown_ns = 5e6 }) (int_range 2 8);
        ]
    in
    let plan =
      oneofl
        [
          "";
          "node-offline:1@110,node-online:1@160";
          "node-flap:1:30@110..170";
          "frame-squeeze:1:0@0";
        ]
    in
    let deadline = oneofl [ 800; 1_500; 3_000 ] in
    let topology = oneofl [ "ace"; "multi-socket" ] in
    tup6 deadline retry hedge breaker plan topology
  in
  let print (d, r, h, b, p, topo) =
    Printf.sprintf "%s faults=%S topology=%s"
      (R.to_string (R.make ~deadline_us:d ?retry:r ?hedge:h ?breaker:b ()))
      p topo
  in
  QCheck.Test.make ~name:"resilient serve conserves requests under chaos" ~count:8
    (QCheck.make ~print gen)
    (fun (deadline_us, retry, hedge, breaker, plan, topology) ->
      let faults =
        match Numa_faults.Plan.of_string plan with
        | Ok p -> p
        | Error e -> QCheck.Test.fail_reportf "plan %S: %s" plan e
      in
      let config_tweak c =
        match Config.of_topology_name ~n_cpus:c.Config.n_cpus topology with
        | Some c -> c
        | None -> QCheck.Test.fail_reportf "unknown topology %S" topology
      in
      let spec =
        {
          Runner.default_spec with
          Runner.scale = 0.02;
          n_cpus = 4;
          nthreads = 4;
          paranoid = true;
          faults;
          config_tweak;
        }
      in
      let cfg = R.make ~deadline_us ?retry ?hedge ?breaker () in
      let app =
        Numa_apps.Serve.make
          ~arrival:(Numa_util.Dist.arrival ~rate_per_s:11_000. ~burst:1. ())
          ~resilience:cfg ()
      in
      let r = Runner.run app spec in
      let res =
        match r.Report.resilience with
        | Some res -> res
        | None -> QCheck.Test.fail_reportf "no resilience section"
      in
      if res.Report.conservation_violations <> 0 then
        QCheck.Test.fail_reportf "%d conservation violations"
          res.Report.conservation_violations;
      if
        res.Report.arrived
        <> res.Report.served_in_deadline + res.Report.timed_out + res.Report.shed
      then
        QCheck.Test.fail_reportf "outcomes do not partition: %d <> %d + %d + %d"
          res.Report.arrived res.Report.served_in_deadline res.Report.timed_out
          res.Report.shed;
      (match r.Report.robustness with
      | Some rb when rb.Report.invariant_violations <> 0 ->
          QCheck.Test.fail_reportf "%d invariant violations"
            rb.Report.invariant_violations
      | Some _ | None -> ());
      true)

let suite =
  [
    qcheck prop_coherence_move_limit;
    qcheck prop_coherence_all_global;
    qcheck prop_coherence_never_pin;
    qcheck prop_coherence_random_policy;
    qcheck prop_copies_follow_events;
    qcheck prop_system_coherence;
    qcheck prop_app_policy_topology_coherent;
    qcheck prop_marked_audit_matches_oracle;
    qcheck prop_model_roundtrip;
    qcheck prop_optimal_bounded;
    qcheck prop_segregated_never_mixes_classes;
    qcheck prop_optimal_monotone_in_events;
    qcheck prop_replay_deterministic;
    qcheck prop_resilience_conserves_requests;
  ]
