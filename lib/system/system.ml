open Numa_machine
module Engine = Numa_sim.Engine
module Sync = Numa_sim.Sync
module Memory_iface = Numa_sim.Memory_iface
module Region_attr = Numa_vm.Region_attr
module Policy = Numa_core.Policy

type policy_spec =
  | Move_limit of { threshold : int }
  | All_global
  | Never_pin
  | Random_assign of { p_global : float; seed : int64 }
  | Reconsider of { threshold : int; window_ns : float }
  | Decay of { threshold : float; half_life_ns : float }
  | Bandwidth_aware of { threshold : int }
  | Migrate_threads of { threshold : int }

let policy_spec_name = function
  | Move_limit { threshold } -> Printf.sprintf "move-limit(%d)" threshold
  | All_global -> "all-global"
  | Never_pin -> "never-pin"
  | Random_assign { p_global; _ } -> Printf.sprintf "random(%.2f)" p_global
  | Reconsider { threshold; _ } -> Printf.sprintf "reconsider(%d)" threshold
  | Decay { threshold; _ } -> Printf.sprintf "decay(%.1f)" threshold
  | Bandwidth_aware { threshold } -> Printf.sprintf "bandwidth-aware(%d)" threshold
  | Migrate_threads { threshold } -> Printf.sprintf "migrate-threads(%d)" threshold

let policy_spec_of_string s =
  match String.split_on_char ':' s with
  | [ "move-limit" ] -> Ok (Move_limit { threshold = 4 })
  | [ "move-limit"; n ] -> (
      match int_of_string_opt n with
      | Some threshold when threshold >= 0 -> Ok (Move_limit { threshold })
      | Some _ | None -> Error "move-limit threshold must be a non-negative int")
  | [ "all-global" ] -> Ok All_global
  | [ "never-pin" ] -> Ok Never_pin
  | [ "random"; p ] -> (
      match float_of_string_opt p with
      | Some p_global when p_global >= 0. && p_global <= 1. ->
          Ok (Random_assign { p_global; seed = 7L })
      | Some _ | None -> Error "random probability must be in [0,1]")
  | [ "reconsider"; n; w ] -> (
      match (int_of_string_opt n, float_of_string_opt w) with
      | Some threshold, Some window_ms when threshold >= 0 && window_ms > 0. ->
          Ok (Reconsider { threshold; window_ns = window_ms *. 1e6 })
      | _ -> Error "expected reconsider:<threshold>:<window-ms>")
  | [ "decay" ] -> Ok (Decay { threshold = 4.; half_life_ns = 50e6 })
  | [ "decay"; n; h ] -> (
      match (float_of_string_opt n, float_of_string_opt h) with
      | Some threshold, Some half_life_ms when threshold >= 0. && half_life_ms > 0. ->
          Ok (Decay { threshold; half_life_ns = half_life_ms *. 1e6 })
      | _ -> Error "expected decay:<threshold>:<half-life-ms>")
  | [ "bandwidth-aware" ] -> Ok (Bandwidth_aware { threshold = 4 })
  | [ "bandwidth-aware"; n ] -> (
      match int_of_string_opt n with
      | Some threshold when threshold >= 0 -> Ok (Bandwidth_aware { threshold })
      | Some _ | None -> Error "bandwidth-aware threshold must be a non-negative int")
  | [ "migrate-threads" ] -> Ok (Migrate_threads { threshold = 4 })
  | [ "migrate-threads"; n ] -> (
      match int_of_string_opt n with
      | Some threshold when threshold >= 0 -> Ok (Migrate_threads { threshold })
      | Some _ | None -> Error "migrate-threads threshold must be a non-negative int")
  | _ ->
      Error
        "unknown policy; use move-limit[:N], all-global, never-pin, random:P, \
         reconsider:N:MS, decay[:T:HL-MS], bandwidth-aware[:N], migrate-threads[:N]"

let builtin_policy_specs =
  [
    Move_limit { threshold = 4 };
    All_global;
    Never_pin;
    Random_assign { p_global = 0.5; seed = 7L };
    Reconsider { threshold = 4; window_ns = 50e6 };
    Decay { threshold = 4.; half_life_ns = 50e6 };
    Bandwidth_aware { threshold = 4 };
    Migrate_threads { threshold = 4 };
  ]

type region = {
  base_vpage : int;
  pages : int;
  attr : Region_attr.t;
  obj : Numa_vm.Vm_object.t;
  task : Numa_vm.Task.t;
  counts : Report.ref_counts;  (** shared by all regions with the same name *)
  writable_data : bool;  (** cached [Region_attr.is_writable_data attr] *)
}

type access_event = {
  at : float;
  cpu : int;
  tid : int;
  vpage : int;
  kind : Access.t;
  count : int;
  where : Location.relative;
  region : string;
}

type fault_notice =
  | Fault_node_offline of int
      (** the node just went offline; drain/evacuation/rehoming already ran *)
  | Fault_node_online of int  (** the node just came back *)

type component = {
  on_fault : fault_notice -> unit;
  audit : (unit -> string list) option;
  report : Report.t -> Report.t;
}

let no_component = { on_fault = ignore; audit = None; report = Fun.id }

type t = {
  config : Config.t;
  topo : Topo.t;  (** resolved topology; the access path prices per node pair *)
  n_nodes : int;
  obs : Numa_obs.Hub.t;
  pmap_mgr : Numa_core.Pmap_manager.t;
  mmu : Mmu.t;
  frames : Frame_table.t;
  ref_ns : float array;
      (** per-reference user cost by [(cpu * n_nodes + node) * 2 + access],
          precomputed from the topology matrix so the access path does no
          cost-model calls *)
  ops : Numa_vm.Pmap_intf.ops;
  pool : Numa_vm.Lpage_pool.t;
  task : Numa_vm.Task.t;
  fault_ctx : Numa_vm.Fault.ctx;
  pageout : Numa_vm.Pageout.t;
  bus : Bus.t;
  engine : Engine.t;
  cost : Memory_iface.cost;  (** where [do_access] leaves each access's costs for the engine *)
  mutable next_task_id : int;
  mutable regions : region list;
  mutable next_obj_id : int;
  mutable locks : Sync.lock list;
  refs_all : Report.ref_counts;
  refs_writable : Report.ref_counts;
  per_region : (string, Report.ref_counts) Hashtbl.t;
  mutable hook : (access_event -> unit) option;
  mutable tasks_by_tid : Numa_vm.Task.t array;
      (** tid -> owning task, grown by [spawn]; the per-access path
          indexes it instead of hashing *)
  mutable regions_by_task : region option array array;
      (** task id -> vpage -> region, grown by [register_region] *)
  mutable accesses_since_scan : int;
  reconsider_interval : int;
      (** access-count period of the reconsideration daemon (only matters
          for policies with expiring pins) *)
  apply_migrate_hints : bool;
      (** whether the daemon tick consumes the policy's thread re-homing
          hints; on only for [Migrate_threads] (the hook is opt-in) *)
  mutable thread_migrations : int;  (** re-homings actually applied *)
  injector : Numa_faults.Injector.t option;
      (** fault schedule, polled from the engine's turn hook; [None] on
          clean runs, which then take none of the paths below *)
  fault_plan : string;  (** canonical plan string, echoed in the report *)
  paranoid : bool;  (** audit protocol invariants from the daemon tick *)
  mutable faults_injected : int;
  mutable threads_rehomed : int;  (** threads moved off offline nodes *)
  mutable oom_faults : int;  (** faults that failed even after reclaim *)
  mutable invariant_checks : int;
  mutable invariant_violations : int;
  mutable first_violations : string list;
      (** verbatim findings of the first failing check, for the report *)
  profile : Numa_obs.Profile.t option;
      (** simulated-time profiler; [None] keeps every hot path and the
          report byte-identical to unprofiled releases *)
  mutable component : component;
      (** the one application seam: fault notices, an audit appended to
          the protocol sweep, and the report sections it fills *)
}

(* --- reference accounting --------------------------------------------- *)

let bump (c : Report.ref_counts) ~(kind : Access.t) ~(where : Location.relative) ~count =
  match (where, kind) with
  | Location.Local_here, Access.Load -> c.local_reads <- c.local_reads + count
  | Location.Local_here, Access.Store -> c.local_writes <- c.local_writes + count
  | Location.In_global, Access.Load -> c.global_reads <- c.global_reads + count
  | Location.In_global, Access.Store -> c.global_writes <- c.global_writes + count
  | Location.Remote_local, Access.Load -> c.remote_reads <- c.remote_reads + count
  | Location.Remote_local, Access.Store -> c.remote_writes <- c.remote_writes + count

(* A reference's reporting bucket, as the observers name it. *)
let event_loc = function
  | Location.Local_here -> Numa_obs.Event.Local
  | Location.In_global -> Numa_obs.Event.Global
  | Location.Remote_local -> Numa_obs.Event.Remote

let region_counts t name =
  match Hashtbl.find_opt t.per_region name with
  | Some c -> c
  | None ->
      let c = Report.zero_counts () in
      Hashtbl.replace t.per_region name c;
      c

(* --- the memory interface handed to the engine ------------------------ *)

let[@inline] find_region t (task : Numa_vm.Task.t) ~vpage =
  if task.id >= Array.length t.regions_by_task then None
  else
    let vpages = t.regions_by_task.(task.id) in
    if vpage < 0 || vpage >= Array.length vpages then None else vpages.(vpage)

(* Consume the policy's pending (from_cpu, to_cpu) re-homing hints: for
   each, move the lowest-tid live thread still homed on from_cpu. Hints
   are advisory — a hint whose source CPU no longer runs anything is
   dropped silently. *)
let apply_migrate_hints t =
  let pol = Numa_core.Pmap_manager.policy t.pmap_mgr in
  List.iter
    (fun (from_cpu, to_cpu) ->
      let n = Engine.n_threads t.engine in
      let rec try_tid tid =
        if tid < n then
          if
            Engine.thread_cpu t.engine ~tid = from_cpu
            && Engine.rehome t.engine ~tid ~cpu:to_cpu
          then begin
            t.thread_migrations <- t.thread_migrations + 1;
            if Numa_obs.Hub.enabled t.obs then
              Numa_obs.Hub.emit t.obs
                (Numa_obs.Event.Thread_migrated { tid; from_cpu; to_cpu })
          end
          else try_tid (tid + 1)
      in
      try_tid 0)
    (pol.Policy.migrate_hints ())

(* --- fault injection and the invariant audit --------------------------- *)

let run_invariant_check t =
  let pol = Numa_core.Pmap_manager.policy t.pmap_mgr in
  let report =
    Numa_core.Invariant.check ~pinned:pol.Policy.is_pinned ~pool:t.pool
      ~manager:(Numa_core.Pmap_manager.manager t.pmap_mgr)
      ~mmu:t.mmu ~frames:t.frames ~config:t.config ()
  in
  let report =
    match t.component.audit with
    | None -> report
    | Some audit ->
        { report with Numa_core.Invariant.violations = report.violations @ audit () }
  in
  t.invariant_checks <- t.invariant_checks + 1;
  let n = List.length report.Numa_core.Invariant.violations in
  if n > 0 then begin
    t.invariant_violations <- t.invariant_violations + n;
    if t.first_violations = [] then
      t.first_violations <- report.Numa_core.Invariant.violations
  end;
  if Numa_obs.Hub.enabled t.obs then
    Numa_obs.Hub.emit t.obs (Numa_obs.Event.Invariant_checked { violations = n });
  report

(* Move every thread homed on a dead node to the nearest CPU node whose
   memory is still online. The CPUs themselves keep running — only the
   node's local memory went away — but re-homing restores the meaning of
   LOCAL placements for those threads. *)
let rehome_threads_off t ~node =
  let n_cpus = t.config.Config.n_cpus in
  match
    Topo.nearest_cpu t.topo ~from:node ~ok:(fun c ->
        c <> node && c < n_cpus && Frame_table.node_online t.frames ~node:c)
  with
  | None -> 0
  | Some target ->
      let moved = ref 0 in
      for tid = 0 to Engine.n_threads t.engine - 1 do
        if
          Engine.thread_cpu t.engine ~tid = node
          && Engine.rehome t.engine ~tid ~cpu:target
        then begin
          incr moved;
          if Numa_obs.Hub.enabled t.obs then
            Numa_obs.Hub.emit t.obs
              (Numa_obs.Event.Thread_migrated { tid; from_cpu = node; to_cpu = target })
        end
      done;
      !moved

let apply_fault t (fired : Numa_faults.Injector.fired) =
  t.faults_injected <- t.faults_injected + 1;
  let emit ev = if Numa_obs.Hub.enabled t.obs then Numa_obs.Hub.emit t.obs ev in
  let mgr = Numa_core.Pmap_manager.manager t.pmap_mgr in
  match fired.Numa_faults.Injector.action with
  | Numa_faults.Injector.Set_node_offline node ->
      emit
        (Numa_obs.Event.Fault_injected
           { kind = "node-offline"; detail = Printf.sprintf "node %d" node });
      if Frame_table.node_online t.frames ~node then begin
        (* Drain first, while the pool is still addressable: dirty owners
           sync to global, replicas flush, frames free. Then close the
           pool and move the node's threads somewhere with live memory. *)
        let pages = Numa_core.Numa_manager.drain_node mgr ~node ~by_cpu:node in
        Frame_table.set_node_online t.frames ~node false;
        (* Page-table evacuation comes after the pool closes, so the
           re-homed table pages cannot land back on the dying node. *)
        (match Mmu.pt t.mmu with
        | Some pt -> Pt.node_offline pt ~node
        | None -> ());
        let threads = rehome_threads_off t ~node in
        t.threads_rehomed <- t.threads_rehomed + threads;
        emit (Numa_obs.Event.Node_drained { node; pages; threads });
        emit (Numa_obs.Event.Node_offline { node });
        t.component.on_fault (Fault_node_offline node)
      end
  | Numa_faults.Injector.Set_node_online node ->
      emit
        (Numa_obs.Event.Fault_injected
           { kind = "node-online"; detail = Printf.sprintf "node %d" node });
      Frame_table.set_node_online t.frames ~node true;
      emit (Numa_obs.Event.Node_online { node });
      t.component.on_fault (Fault_node_online node)
  | Numa_faults.Injector.Begin_link_degrade { src; dst; factor } ->
      emit
        (Numa_obs.Event.Fault_injected
           {
             kind = "link-degrade";
             detail = Printf.sprintf "%d->%d by %g" src dst factor;
           });
      Bus.set_degrade t.bus ~src ~dst ~factor;
      emit (Numa_obs.Event.Link_degraded { src; dst; factor })
  | Numa_faults.Injector.End_link_degrade { src; dst } ->
      Bus.clear_degrade t.bus ~src ~dst;
      emit (Numa_obs.Event.Link_degraded { src; dst; factor = 1. })
  | Numa_faults.Injector.Squeeze_frames { node; frac } ->
      let limit = Frame_table.squeeze t.frames ~node ~frac in
      emit
        (Numa_obs.Event.Fault_injected
           {
             kind = "frame-squeeze";
             detail = Printf.sprintf "node %d to %d frames" node limit;
           })
  | Numa_faults.Injector.Corrupt_replica_pte { lpage } ->
      (* The bug shootdown-aware PTE management exists to prevent, planted
         on purpose: the next invariant audit must call it out. *)
      let detail =
        match Mmu.pt t.mmu with
        | None -> Printf.sprintf "lpage %d: no page tables attached" lpage
        | Some pt -> (
            match Pt.corrupt_replica pt ~lpage with
            | Some (pmap, node) ->
                Printf.sprintf "lpage %d: replica PTE in pmap %d, node %d" lpage pmap
                  node
            | None -> Printf.sprintf "lpage %d: no replica PTE to corrupt" lpage)
      in
      emit (Numa_obs.Event.Fault_injected { kind = "stale-pte"; detail })
  | Numa_faults.Injector.Spurious_shootdown { lpage } ->
      let dropped = Numa_core.Numa_manager.spurious_shootdown mgr ~lpage in
      emit
        (Numa_obs.Event.Fault_injected
           {
             kind = "spurious-shootdown";
             detail = Printf.sprintf "lpage %d, %d mappings" lpage dropped;
           })

let do_access t ~cpu ~tid ~vpage ~access:kind ~count ~value =
  (* Reconsideration daemon: a cheap periodic tick piggybacked on the
     access stream (the real system would use a kernel timer). *)
  t.accesses_since_scan <- t.accesses_since_scan + 1;
  if t.accesses_since_scan >= t.reconsider_interval then begin
    t.accesses_since_scan <- 0;
    (* Kernel work charged during the tick is the daemon's, not the
       application's; the profiler separates the two by context. *)
    (match t.profile with
    | Some p -> Numa_obs.Profile.set_context p Numa_obs.Profile.Daemon
    | None -> ());
    ignore (Numa_core.Pmap_manager.reconsider_scan t.pmap_mgr);
    (* Writeback daemon: retire page-ins/writebacks whose modeled disk
       latency has elapsed, launder dirty pages when the pool is low, and
       top the free list back up to the high-water mark. *)
    ignore (Numa_vm.Pageout.daemon_tick t.pageout ~now:(Engine.now t.engine) ~by_cpu:cpu);
    (* Replication daemon: under eager page-table replication, rebuild any
       replica a returned node is missing (a no-op in every other mode). *)
    (match Mmu.pt t.mmu with
    | Some pt -> ignore (Pt.daemon_sweep pt ~by_cpu:cpu)
    | None -> ());
    if t.apply_migrate_hints then apply_migrate_hints t;
    if t.paranoid then ignore (run_invariant_check t);
    (match t.profile with
    | Some p -> Numa_obs.Profile.set_context p Numa_obs.Profile.App
    | None -> ())
  end;
  (* Resolve the reference in the issuing thread's address space. *)
  let thread_task =
    if tid < Array.length t.tasks_by_tid then t.tasks_by_tid.(tid) else t.task
  in
  let region =
    match find_region t thread_task ~vpage with
    | Some r -> r
    | None ->
        failwith
          (Printf.sprintf "access to unmapped virtual page %d in task %d" vpage
             thread_task.Numa_vm.Task.id)
  in
  let pmap = thread_task.Numa_vm.Task.pmap in
  (* Stable references resolve through the CPU's software TLB in O(1);
     only faults (and the retry after resolving one) walk the MMU hash
     table and the fault path below it. *)
  let found = ref (Mmu.translate t.mmu ~pmap ~cpu ~vpage) and faults = ref 0 in
  while
    match !found with Some e -> not (Prot.allows e.Mmu.prot kind) | None -> true
  do
    (match Numa_vm.Fault.handle t.fault_ctx thread_task ~cpu ~vpage ~access:kind with
    | Ok () -> ()
    | Error e ->
        (match e with
        | Numa_vm.Fault.Out_of_memory -> t.oom_faults <- t.oom_faults + 1
        | Numa_vm.Fault.No_region | Numa_vm.Fault.Protection_violation -> ());
        failwith
          (Printf.sprintf "page fault failed at vpage %d: %s" vpage
             (Numa_vm.Fault.error_to_string e)));
    incr faults;
    if !faults > 3 then failwith "fault loop did not converge";
    found := Mmu.translate t.mmu ~pmap ~cpu ~vpage
  done;
  let entry = match !found with Some e -> e | None -> assert false in
  (* [where] keeps the paper's three reporting buckets; [node] is the
     physical node that serves the reference and prices it. On the
     classic ACE the two views coincide exactly. *)
  let where = Mmu.phys_location ~cpu entry.Mmu.phys in
  let node =
    match entry.Mmu.phys with
    | Mmu.Frame f -> f.Frame_table.node
    | Mmu.Global_frame lpage -> Topo.global_home t.topo ~lpage
  in
  let bus_delay =
    if node = cpu then 0.
    else
      (* Traffic to another node's memory crosses the interconnect. *)
      Bus.delay_ns ~cpu ~src:cpu ~dst:node t.bus ~now:(Engine.now t.engine) ~words:count
  in
  if Numa_obs.Hub.enabled t.obs then
    Numa_obs.Hub.emit t.obs
      (Numa_obs.Event.Refs
         { cpu; n = count; write = kind = Access.Store; loc = event_loc where; node });
  let cost_idx =
    (((cpu * t.n_nodes) + node) * 2)
    + match kind with Access.Load -> 0 | Access.Store -> 1
  in
  let user_ns = (float_of_int count *. t.ref_ns.(cost_idx)) +. bus_delay in
  (match t.profile with
  | Some p ->
      let lpage = entry.Mmu.lpage in
      Numa_obs.Profile.charge_ref p ~cpu ~dst:node ~loc:(event_loc where) ~lpage ~tid
        (float_of_int count *. t.ref_ns.(cost_idx));
      if bus_delay > 0. then Numa_obs.Profile.charge_bus p ~cpu ~dst:node ~lpage bus_delay
  | None -> ());
  let system_ns =
    Cost_sink.drain (Numa_core.Pmap_manager.sink t.pmap_mgr) ~cpu
  in
  let value =
    match kind with
    | Access.Store -> (
        match entry.Mmu.phys with
        | Mmu.Frame f ->
            Frame_table.write_local t.frames f value;
            value
        | Mmu.Global_frame l ->
            Frame_table.write_global t.frames ~lpage:l value;
            value)
    | Access.Load -> (
        match entry.Mmu.phys with
        | Mmu.Frame f -> Frame_table.read_local f
        | Mmu.Global_frame l -> Frame_table.read_global t.frames ~lpage:l)
  in
  bump t.refs_all ~kind ~where ~count;
  if region.writable_data then bump t.refs_writable ~kind ~where ~count;
  bump region.counts ~kind ~where ~count;
  (match t.hook with
  | None -> ()
  | Some f ->
      f
        {
          at = Engine.now t.engine;
          cpu;
          tid;
          vpage;
          kind;
          count;
          where;
          region = region.attr.Region_attr.name;
        });
  t.cost.Memory_iface.user_ns <- user_ns;
  t.cost.Memory_iface.system_ns <- system_ns;
  value

(* --- construction ------------------------------------------------------ *)

let no_pressure ~node:_ = 0.

let policy_of_spec ?(pressure = no_pressure) spec ~n_pages ~now ~topo =
  match spec with
  | Move_limit { threshold } -> Policy.move_limit ~threshold ~n_pages ()
  | All_global -> Policy.all_global ()
  | Never_pin -> Policy.never_pin ()
  | Random_assign { p_global; seed } ->
      Policy.random ~prng:(Numa_util.Prng.create ~seed) ~p_global ~n_pages
  | Reconsider { threshold; window_ns } ->
      Policy.reconsider ~threshold ~window_ns ~now ~n_pages ()
  | Decay { threshold; half_life_ns } -> Policy.decay ~threshold ~half_life_ns ~now ~n_pages ()
  | Bandwidth_aware { threshold } -> Policy.bandwidth_aware ~threshold ~topo ~pressure ~n_pages ()
  | Migrate_threads { threshold } -> Policy.migrate_threads ~threshold ~topo ~n_pages ()

let create ?obs ?(policy = Move_limit { threshold = 4 }) ?(scheduler = Engine.Affinity)
    ?(chunk_refs = 2048) ?(unix_master = false) ?(faults = Numa_faults.Plan.empty)
    ?(paranoid = false) ?(profiling = false) ?(victim = Numa_vm.Pageout.Clock)
    ?(pt_mode = Pt.Off) ~config () =
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("System.create: bad machine config: " ^ msg));
  (* One hub shared by every layer: the bus, the pmap/NUMA managers and the
     engine all emit into it, and the engine drives its clock. *)
  let obs = match obs with Some h -> h | None -> Numa_obs.Hub.create () in
  let topo = Config.topology config in
  (match
     Numa_faults.Plan.validate faults ~cpu_nodes:(Topo.cpu_nodes topo)
       ~n_nodes:(Topo.n_nodes topo)
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("System.create: bad fault plan: " ^ msg));
  let injector =
    if Numa_faults.Plan.is_empty faults then None
    else Some (Numa_faults.Injector.create faults ~n_pages:config.Config.global_pages)
  in
  let now_cell = ref (fun () -> 0.) in
  (* The bandwidth-aware policy consults per-node frame pressure, but the
     frame table only exists once the pmap manager does — and the manager
     needs the policy. Tie the knot with a cell, like [now_cell]. *)
  let frames_cell = ref None in
  let pressure ~node =
    match !frames_cell with
    | None -> 0.
    | Some frames ->
        let cap = Frame_table.local_capacity frames ~node in
        if cap <= 0 then 1.
        else float_of_int (Frame_table.local_in_use frames ~node) /. float_of_int cap
  in
  let pol =
    policy_of_spec policy ~pressure ~n_pages:config.Config.global_pages
      ~now:(fun () -> !now_cell ())
      ~topo
  in
  let pmap_mgr = Numa_core.Pmap_manager.create ~obs ~pt_mode ~config ~policy:pol () in
  frames_cell := Some (Numa_core.Pmap_manager.frames pmap_mgr);
  let ops = Numa_core.Pmap_manager.ops pmap_mgr in
  let pool = Numa_vm.Lpage_pool.create config ~ops in
  let task = Numa_vm.Task.create ~ops ~id:0 ~name:"workload" in
  let pageout =
    Numa_vm.Pageout.create ~pool ~ops ~low_water:2
      ~high_water:(max 8 (config.Config.global_pages / 64))
      ~victim
      ~paging:(Numa_core.Pmap_manager.paging pmap_mgr)
      ()
  in
  let fault_ctx =
    {
      Numa_vm.Fault.ops;
      config;
      topo;
      sink = Numa_core.Pmap_manager.sink pmap_mgr;
      pool;
      pageout = Some pageout;
      obs = Some obs;
    }
  in
  let tref = ref None in
  let cost = { Memory_iface.user_ns = 0.; system_ns = 0. } in
  let memory =
    {
      Memory_iface.access =
        (fun ~cpu ~tid ~vpage ~access ~count ~value ->
          match !tref with
          | Some t -> do_access t ~cpu ~tid ~vpage ~access ~count ~value
          | None -> assert false);
      cost;
    }
  in
  let engine_config =
    {
      (Engine.default_config ~n_cpus:config.Config.n_cpus) with
      Engine.chunk_refs;
      unix_master;
    }
  in
  let engine = Engine.create ~obs engine_config ~memory ~scheduler in
  let bus = Bus.create ~obs config in
  let n_nodes = Topo.n_nodes topo in
  let profile =
    if not profiling then None
    else begin
      (* One profiler shared by the two charging paths: the engine (refs,
         compute, spin, syscalls, dispatch, idle) and the cost sink
         (kernel charges, flushed at drain time). *)
      let p =
        Numa_obs.Profile.create ~n_cpus:config.Config.n_cpus ~n_nodes
          ~n_pages:config.Config.global_pages
      in
      Engine.set_profile engine p;
      Cost_sink.set_profile (Numa_core.Pmap_manager.sink pmap_mgr) (Some p);
      Some p
    end
  in
  let t =
    {
      config;
      topo;
      n_nodes;
      obs;
      pmap_mgr;
      mmu = Numa_core.Pmap_manager.mmu pmap_mgr;
      frames = Numa_core.Pmap_manager.frames pmap_mgr;
      ref_ns =
        Array.init
          (config.Config.n_cpus * n_nodes * 2)
          (fun i ->
            let cpu = i / (n_nodes * 2) in
            let node = i / 2 mod n_nodes in
            Cost.node_reference_ns ~topo
              ~access:(if i land 1 = 0 then Access.Load else Access.Store)
              ~cpu ~node);
      ops;
      pool;
      task;
      fault_ctx;
      pageout;
      bus;
      engine;
      cost;
      next_task_id = 1;
      regions = [];
      next_obj_id = 0;
      locks = [];
      refs_all = Report.zero_counts ();
      refs_writable = Report.zero_counts ();
      per_region = Hashtbl.create 32;
      hook = None;
      tasks_by_tid = [||];
      regions_by_task = [||];
      accesses_since_scan = 0;
      reconsider_interval = 512;
      apply_migrate_hints = (match policy with Migrate_threads _ -> true | _ -> false);
      thread_migrations = 0;
      injector;
      fault_plan = Numa_faults.Plan.to_string faults;
      paranoid;
      faults_injected = 0;
      threads_rehomed = 0;
      oom_faults = 0;
      invariant_checks = 0;
      invariant_violations = 0;
      first_violations = [];
      profile;
      component = no_component;
    }
  in
  tref := Some t;
  (now_cell := fun () -> Engine.now engine);
  (* A failed local-frame allocation retries once after page-out-driven
     reclamation before degrading to global. [ensure_free]'s own watermark
     is on the logical-page pool, which a full node does not necessarily
     deplete, so ask for one more free lpage than we have: that forces at
     least one eviction per retry. *)
  Numa_core.Numa_manager.set_reclaim
    (Numa_core.Pmap_manager.manager pmap_mgr)
    (fun ~avoid ~by_cpu ->
      Numa_vm.Pageout.ensure_free ~avoid ~by_cpu pageout
        ~needed:(Numa_vm.Lpage_pool.n_free pool + 1));
  (match t.injector with
  | None -> ()
  | Some inj ->
      Engine.set_turn_hook engine (fun ~now ->
          match Numa_faults.Injector.due inj ~now with
          | [] -> ()
          | fired ->
              (match t.profile with
              | Some p -> Numa_obs.Profile.set_context p Numa_obs.Profile.Degradation
              | None -> ());
              List.iter (fun f -> apply_fault t f) fired;
              (* Every injected batch is followed by a full protocol audit:
                 degradation must never mean a wrong answer. *)
              ignore (run_invariant_check t);
              (match t.profile with
              | Some p -> Numa_obs.Profile.set_context p Numa_obs.Profile.App
              | None -> ())));
  t

(* --- workload construction --------------------------------------------- *)

let register_region t ?pragma ~(task : Numa_vm.Task.t) ~attr ~obj ~pages ~max_prot () =
  let vm_region =
    Numa_vm.Vm_map.allocate task.Numa_vm.Task.map ~npages:pages ~obj ~obj_offset:0
      ~max_prot ~attr ()
  in
  let region =
    {
      base_vpage = vm_region.Numa_vm.Vm_map.base_vpage;
      pages;
      attr;
      obj;
      task;
      counts = region_counts t attr.Region_attr.name;
      writable_data = Region_attr.is_writable_data attr;
    }
  in
  let id = task.Numa_vm.Task.id in
  t.regions_by_task <- Rows.fit t.regions_by_task id [||];
  let vpages = Rows.fit t.regions_by_task.(id) (region.base_vpage + pages - 1) None in
  Array.fill vpages region.base_vpage pages (Some region);
  t.regions_by_task.(id) <- vpages;
  (match pragma with
  | None -> ()
  | Some _ ->
      Numa_core.Pmap_manager.set_pragma t.pmap_mgr ~pmap:task.Numa_vm.Task.pmap
        ~vpage:region.base_vpage ~n:pages pragma);
  t.regions <- region :: t.regions;
  region

let max_prot_of_kind = function
  | Region_attr.Code -> Prot.Read_only
  | Region_attr.Data | Region_attr.Stack _ | Region_attr.Sync -> Prot.Read_write

let alloc_region t ?pragma ?task ~name ~kind ~sharing ~pages () =
  if pages <= 0 then invalid_arg "System.alloc_region: pages must be positive";
  let task = Option.value task ~default:t.task in
  let attr = Region_attr.v ?pragma ~name ~kind ~sharing () in
  let obj = Numa_vm.Vm_object.create ~id:t.next_obj_id ~name ~size_pages:pages in
  t.next_obj_id <- t.next_obj_id + 1;
  let region =
    register_region t ?pragma ~task ~attr ~obj ~pages ~max_prot:(max_prot_of_kind kind) ()
  in
  Numa_vm.Pageout.register t.pageout region.obj;
  region

let create_task t ~name =
  let task = Numa_vm.Task.create ~ops:t.ops ~id:t.next_task_id ~name in
  t.next_task_id <- t.next_task_id + 1;
  task

let map_shared t ?pragma ~into source_region =
  (* Map the source region's memory object into another task: the Mach
     named-memory-object idiom -- both tasks reach the same logical pages
     through their own pmaps, and the NUMA layer sees the sharing. *)
  let attr = source_region.attr in
  register_region t ?pragma ~task:into ~attr ~obj:source_region.obj
    ~pages:source_region.pages
    ~max_prot:(max_prot_of_kind attr.Region_attr.kind)
    ()

let make_lock t ~name =
  let r =
    alloc_region t ~name ~kind:Region_attr.Sync ~sharing:Region_attr.Declared_write_shared
      ~pages:1 ()
  in
  let lock = Engine.make_lock t.engine ~vpage:r.base_vpage in
  t.locks <- lock :: t.locks;
  lock

let make_barrier t ~name ~parties =
  let r =
    alloc_region t ~name ~kind:Region_attr.Sync ~sharing:Region_attr.Declared_write_shared
      ~pages:1 ()
  in
  Engine.make_barrier t.engine ~vpage:r.base_vpage ~parties

let spawn t ?cpu ?task ?(stack_pages = 1) ~name body =
  let tid_guess = Engine.n_threads t.engine in
  let stack =
    alloc_region t ?task
      ~name:(Printf.sprintf "%s.stack" name)
      ~kind:(Region_attr.Stack tid_guess) ~sharing:Region_attr.Declared_private
      ~pages:stack_pages ()
  in
  let tid =
    Engine.spawn t.engine ?cpu ~stack_vpage:stack.base_vpage ~name (fun () ->
        body ~stack_vpage:stack.base_vpage)
  in
  t.tasks_by_tid <- Rows.fit t.tasks_by_tid tid t.task;
  t.tasks_by_tid.(tid) <- Option.value task ~default:t.task;
  assert (tid = tid_guess);
  tid

let set_access_hook t hook = t.hook <- hook
let set_component t c = t.component <- c

(* --- running and reporting --------------------------------------------- *)

let run t =
  Engine.run t.engine;
  (* Faulted and paranoid runs, and runs whose component audits, end with
     one last audit, so "completed with zero violations" is a statement
     about the final state too, the component's included. *)
  let audited =
    Option.is_some t.injector || t.paranoid || Option.is_some t.component.audit
  in
  if audited then ignore (run_invariant_check t);
  let stats = Numa_core.Pmap_manager.stats t.pmap_mgr in
  stats.Numa_core.Numa_stats.tlb_hits <- Mmu.tlb_hits t.mmu;
  stats.Numa_core.Numa_stats.tlb_misses <- Mmu.tlb_misses t.mmu;
  stats.Numa_core.Numa_stats.tlb_shootdowns <- Mmu.tlb_shootdowns t.mmu;
  let pol = Numa_core.Pmap_manager.policy t.pmap_mgr in
  let n_cpus = t.config.Config.n_cpus in
  let profile_snapshot =
    match t.profile with
    | None -> None
    | Some p ->
        Numa_obs.Profile.finalize p ~elapsed_ns:(Engine.elapsed_ns t.engine);
        Some (Numa_obs.Profile.snapshot p)
  in
  t.component.report
    {
      Report.policy_name = pol.Policy.name;
      n_cpus;
      n_threads = Engine.n_threads t.engine;
      user_ns_per_cpu = Array.init n_cpus (fun cpu -> Engine.user_ns t.engine ~cpu);
      system_ns_per_cpu = Array.init n_cpus (fun cpu -> Engine.system_ns t.engine ~cpu);
      total_user_ns = Engine.total_user_ns t.engine;
      total_system_ns = Engine.total_system_ns t.engine;
      elapsed_ns = Engine.elapsed_ns t.engine;
      refs_all = t.refs_all;
      refs_writable_data = t.refs_writable;
      per_region =
        List.rev_map
          (fun r ->
            let name = r.attr.Region_attr.name in
            (name, region_counts t name))
          t.regions;
      alpha_counted = Report.local_fraction t.refs_writable;
      numa_enters = stats.Numa_core.Numa_stats.enters;
      numa_moves = stats.Numa_core.Numa_stats.moves;
      numa_copies_to_local = stats.Numa_core.Numa_stats.copies_to_local;
      numa_syncs_to_global = stats.Numa_core.Numa_stats.syncs_to_global;
      numa_replicas_flushed = stats.Numa_core.Numa_stats.replicas_flushed;
      numa_mappings_dropped = stats.Numa_core.Numa_stats.mappings_dropped;
      numa_zero_fills_local = stats.Numa_core.Numa_stats.zero_fills_local;
      numa_zero_fills_global = stats.Numa_core.Numa_stats.zero_fills_global;
      numa_local_fallbacks = stats.Numa_core.Numa_stats.local_fallbacks;
      tlb_hits = stats.Numa_core.Numa_stats.tlb_hits;
      tlb_misses = stats.Numa_core.Numa_stats.tlb_misses;
      tlb_shootdowns = stats.Numa_core.Numa_stats.tlb_shootdowns;
      pins = pol.Policy.n_pinned ();
      placement = Numa_core.Pmap_manager.placement_summary t.pmap_mgr;
      policy_info = pol.Policy.info ();
      n_events = Engine.n_events t.engine;
      lock_acquisitions = List.fold_left (fun acc l -> acc + l.Sync.acquisitions) 0 t.locks;
      lock_contended_polls =
        List.fold_left (fun acc l -> acc + l.Sync.contended_polls) 0 t.locks;
      bus_words = Bus.total_words t.bus;
      bus_delay_ns = Bus.total_delay_ns t.bus;
      robustness =
        (if audited then
           Some
             {
               Report.fault_plan = t.fault_plan;
               faults_injected = t.faults_injected;
               node_drains = stats.Numa_core.Numa_stats.node_drains;
               drained_pages = stats.Numa_core.Numa_stats.drained_pages;
               threads_rehomed = t.threads_rehomed;
               reclaim_retries = stats.Numa_core.Numa_stats.reclaim_retries;
               reclaim_rescues = stats.Numa_core.Numa_stats.reclaim_rescues;
               spurious_shootdowns = stats.Numa_core.Numa_stats.spurious_shootdowns;
               oom_faults = t.oom_faults;
               invariant_checks = t.invariant_checks;
               invariant_violations = t.invariant_violations;
               first_violations = t.first_violations;
             }
         else None);
      paging =
        (let pg = Numa_core.Pmap_manager.paging t.pmap_mgr in
         if not (Paging.active pg) then None
         else
           let s = Paging.stats pg in
           Some
             {
               Report.page_ins = s.Paging.page_ins;
               evictions = Numa_vm.Pageout.evictions t.pageout;
               clean_evictions = s.Paging.clean_evictions;
               dirty_evictions = s.Paging.dirty_evictions;
               writebacks_started = s.Paging.writebacks_started;
               writebacks_completed = s.Paging.writebacks_completed;
               writebacks_canceled = s.Paging.writebacks_canceled;
               sync_writebacks = s.Paging.sync_writebacks;
               redirtied = s.Paging.redirtied;
               disk_read_ns = s.Paging.disk_read_ns;
               disk_write_ns = s.Paging.disk_write_ns;
               resident_clean = s.Paging.n_clean;
               resident_dirty = s.Paging.n_dirty;
               in_writeback = s.Paging.n_writeback;
             });
      profile = profile_snapshot;
      pt =
        (match Mmu.pt t.mmu with
        | None -> None
        | Some pt ->
            let s = Pt.stats pt in
            Some
              {
                Report.pt_mode = Pt.mode_to_string (Pt.mode pt);
                walks = s.Pt.walks;
                walk_levels = s.Pt.walk_levels;
                walk_ns = s.Pt.walk_ns;
                pte_updates = s.Pt.pte_updates;
                pte_shootdowns = s.Pt.pte_shootdowns;
                shootdown_ns = s.Pt.shootdown_ns;
                replicas_built = s.Pt.replicas_built;
                replicas_dropped = s.Pt.replicas_dropped;
                pt_frames = s.Pt.pt_frames;
                global_pt_pages = s.Pt.global_pt_pages;
                tlb_per_cpu =
                  Array.init n_cpus (fun cpu -> Mmu.tlb_stats t.mmu ~cpu);
              });
      serving = None;
      resilience = None;
    }

(* --- introspection ------------------------------------------------------ *)

let config t = t.config
let obs t = t.obs
let engine t = t.engine
let pmap_manager t = t.pmap_mgr
let numa_manager t = Numa_core.Pmap_manager.manager t.pmap_mgr
let policy t = Numa_core.Pmap_manager.policy t.pmap_mgr
let task t = t.task
let pool t = t.pool
let region_at t ?task ~vpage () = find_region t (Option.value task ~default:t.task) ~vpage

let lpage_of t ?task ~vpage () =
  match region_at t ?task ~vpage () with
  | None -> None
  | Some r -> (
      let offset = vpage - r.base_vpage in
      match Numa_vm.Vm_object.slot r.obj ~offset with
      | Numa_vm.Vm_object.Resident lpage -> Some lpage
      | Numa_vm.Vm_object.Empty | Numa_vm.Vm_object.Paged_out _ -> None)

let migrate_pages t ~src ~dst =
  Numa_core.Pmap_manager.migrate_node_pages t.pmap_mgr ~src ~dst

let page_out t region ~page_index =
  if page_index < 0 || page_index >= region.pages then
    invalid_arg "System.page_out: page index out of range";
  Numa_vm.Vm_object.page_out region.obj ~pool:t.pool ~ops:t.ops ~offset:page_index

let profile t = t.profile
let thread_migrations t = t.thread_migrations
let audit t = run_invariant_check t
let faults_injected t = t.faults_injected
let invariant_violations t = t.invariant_violations
let topo t = t.topo
let node_online t ~node = Frame_table.node_online t.frames ~node
