open Numa_machine
module Sys_ = Numa_system.System
module Pmap_manager = Numa_core.Pmap_manager

type result = {
  policy_name : string;
  ref_ns : float;
  protocol_ns : float;
  moves : int;
  pins : int;
  local_refs : int;
  global_refs : int;
  remote_refs : int;
}

let replay ~config ~policy buffer =
  let now_cell = ref 0. in
  let pol =
    Sys_.policy_of_spec policy ~n_pages:config.Config.global_pages
      ~now:(fun () -> !now_cell)
      ~topo:(Config.topology config)
  in
  let mgr = Pmap_manager.create ~config ~policy:pol () in
  let ops = Pmap_manager.ops mgr in
  let sink = Pmap_manager.sink mgr in
  let pmap = ops.Numa_vm.Pmap_intf.pmap_create ~name:"replay" in
  (* Map the trace's virtual pages onto fresh logical pages on first touch. *)
  let lpage_of_vpage = Hashtbl.create 256 in
  let next_lpage = ref 0 in
  let lpage_for vpage =
    match Hashtbl.find_opt lpage_of_vpage vpage with
    | Some l -> l
    | None ->
        if !next_lpage >= config.Config.global_pages then
          failwith "Replay.replay: trace touches more pages than the pool holds";
        let l = !next_lpage in
        incr next_lpage;
        Hashtbl.replace lpage_of_vpage vpage l;
        ops.Numa_vm.Pmap_intf.zero_page ~lpage:l;
        l
  in
  let ref_ns = ref 0. in
  let protocol_ns = ref 0. in
  let local = ref 0 and global = ref 0 and remote = ref 0 in
  Trace_buffer.iter buffer (fun e ->
      now_cell := e.Sys_.at;
      let lpage = lpage_for e.Sys_.vpage in
      let cpu = e.Sys_.cpu and kind = e.Sys_.kind in
      (* Fault loop, as in the live system. *)
      let rec ensure n =
        if n > 3 then failwith "Replay.replay: fault loop did not converge";
        match ops.Numa_vm.Pmap_intf.resident ~pmap ~cpu ~vpage:e.Sys_.vpage with
        | Some (prot, where) when Prot.allows prot kind -> where
        | Some _ | None ->
            protocol_ns := !protocol_ns +. Cost.fault_trap_ns config;
            ops.Numa_vm.Pmap_intf.enter ~pmap ~cpu ~vpage:e.Sys_.vpage ~lpage
              ~min_prot:(Prot.of_access kind) ~max_prot:Prot.Read_write;
            ensure (n + 1)
      in
      let where = ensure 0 in
      ref_ns := !ref_ns +. Cost.references_ns config ~access:kind ~where ~count:e.Sys_.count;
      (match where with
      | Location.Local_here -> local := !local + e.Sys_.count
      | Location.In_global -> global := !global + e.Sys_.count
      | Location.Remote_local -> remote := !remote + e.Sys_.count);
      protocol_ns := !protocol_ns +. Cost_sink.drain sink ~cpu);
  let stats = Pmap_manager.stats mgr in
  {
    policy_name = Sys_.policy_spec_name policy;
    ref_ns = !ref_ns;
    protocol_ns = !protocol_ns;
    moves = stats.Numa_core.Numa_stats.moves;
    pins = pol.Numa_core.Policy.n_pinned ();
    local_refs = !local;
    global_refs = !global;
    remote_refs = !remote;
  }

let compare_policies ~config ~policies buffer =
  List.map (fun policy -> replay ~config ~policy buffer) policies

let render results =
  let seconds ns = Printf.sprintf "%.3f" (ns /. 1e9) in
  let local_frac r =
    let total = r.local_refs + r.global_refs + r.remote_refs in
    if total = 0 then "na"
    else Printf.sprintf "%.3f" (float_of_int r.local_refs /. float_of_int total)
  in
  Numa_util.Text_table.(
    of_rows results
      ~columns:
        [
          ("policy", Left, fun r -> r.policy_name);
          ("refs (s)", Right, fun r -> seconds r.ref_ns);
          ("protocol (s)", Right, fun r -> seconds r.protocol_ns);
          ("total (s)", Right, fun r -> seconds (r.ref_ns +. r.protocol_ns));
          ("moves", Right, fun r -> cell_int r.moves);
          ("pins", Right, fun r -> cell_int r.pins);
          ("local frac", Right, local_frac);
        ])
