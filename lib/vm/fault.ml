open Numa_machine

type ctx = {
  ops : Pmap_intf.ops;
  config : Config.t;
  topo : Topo.t;
  sink : Cost_sink.t;
  pool : Lpage_pool.t;
  pageout : Pageout.t option;
  obs : Numa_obs.Hub.t option;
}

type error = No_region | Protection_violation | Out_of_memory

let error_to_string = function
  | No_region -> "no region at faulting address"
  | Protection_violation -> "access exceeds region protection"
  | Out_of_memory -> "logical page pool exhausted"

(* A Paged_out slot costs a real page-in: the faulting CPU waits out the
   modeled disk read (seek + DMA into the page's home memory). Checked
   before lpage_for because materialising flips the slot to Resident. *)
let materialise ctx obj ~cpu ~offset =
  let paged_out =
    match Vm_object.slot obj ~offset with
    | Vm_object.Paged_out _ -> true
    | Vm_object.Empty | Vm_object.Resident _ -> false
  in
  match Vm_object.lpage_for obj ~pool:ctx.pool ~ops:ctx.ops ~offset with
  | Ok lpage as ok ->
      if paged_out then
        Cost_sink.add ctx.sink ~cpu ~cat:Numa_obs.Profile.Disk_read ~lpage
          (Cost.disk_read_ns ctx.config ~topo:ctx.topo ~lpage);
      ok
  | Error _ as e -> e

let materialise_with_reclaim ctx obj ~cpu ~offset =
  match materialise ctx obj ~cpu ~offset with
  | Ok _ as ok -> ok
  | Error `Pool_exhausted -> (
      (* Kick the pageout daemon and retry once. The eviction work
         (syncing dirty copies, dropping mappings) is charged through the
         pmap layer as it happens; approximate the daemon's own latency
         with one pmap action. *)
      match ctx.pageout with
      | Some daemon when Pageout.ensure_free ~by_cpu:cpu daemon ~needed:1 ->
          Cost_sink.add ctx.sink ~cpu ~cat:Numa_obs.Profile.Pmap_action ~lpage:(-1)
            (Cost.pmap_action_ns ctx.config);
          materialise ctx obj ~cpu ~offset
      | Some _ | None -> Error `Pool_exhausted)

let handle ctx (task : Task.t) ~cpu ~vpage ~access =
  Cost_sink.add ctx.sink ~cpu ~cat:Numa_obs.Profile.Fault_trap ~lpage:(-1)
    (Cost.fault_trap_ns ctx.config);
  match Vm_map.region_at task.map ~vpage with
  | None -> Error No_region
  | Some region ->
      if not (Prot.allows region.max_prot access) then Error Protection_violation
      else
        let offset = Vm_map.obj_offset_of_vpage region ~vpage in
        (match materialise_with_reclaim ctx region.obj ~cpu ~offset with
        | Error `Pool_exhausted ->
            (* A fault the pager could not rescue is a loud, typed failure:
               the workload sees Out_of_memory, observers see the event. *)
            (match ctx.obs with
            | Some hub when Numa_obs.Hub.enabled hub ->
                Numa_obs.Hub.emit hub (Numa_obs.Event.Out_of_memory { cpu; vpage })
            | Some _ | None -> ());
            Error Out_of_memory
        | Ok lpage ->
            ctx.ops.enter ~pmap:task.pmap ~cpu ~vpage ~lpage
              ~min_prot:(Prot.of_access access) ~max_prot:region.max_prot;
            Ok ())
