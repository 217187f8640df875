open Numa_machine

type report = {
  pages_checked : int;
  mappings_checked : int;
  replicas_checked : int;
  paging_checked : int;
  pt_checked : int;
  violations : string list;
}

let check ?pinned ?pool ~manager ~mmu ~frames ~(config : Config.t) () =
  let violations = ref [] in
  let mappings_checked = ref 0 in
  let replicas_checked = ref 0 in
  let pt_checked = ref 0 in
  let paging = Frame_table.paging frames in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* Only pages some layer holds state for are swept: a directory entry
     that is not Untouched or still has a replica, a reverse-map bucket,
     or a paging entry that is not Empty. Every other page is Untouched,
     with no replica, no mapping and an Empty paging entry, so it passes
     every clause of [check_page] below and only counts towards
     [pages_checked] and [paging_checked]. A new per-page clause that can
     fire on such a page must widen the marks. The bitset is a minor-heap
     block at the usual pool sizes, and the sweep skips it a byte at a
     time. *)
  let n_pages = config.Config.global_pages in
  let paging_gated = Option.is_some paging && Option.is_some pool in
  let held = Bytes.make ((n_pages + 7) / 8) '\000' in
  let mark lpage =
    if lpage >= 0 && lpage < n_pages then
      let i = lpage lsr 3 in
      Bytes.set_uint8 held i (Bytes.get_uint8 held i lor (1 lsl (lpage land 7)))
  in
  let n_writeback = ref 0 in
  Numa_manager.iter_held manager mark;
  Mmu.iter_mapped_lpages mmu mark;
  (match paging with
  | Some pg ->
      Paging.iter_held pg (fun lpage ->
          mark lpage;
          if Paging.state pg ~lpage = Paging.Writeback then incr n_writeback)
  | None -> ());
  let check_page lpage =
    let state = Numa_manager.state_of manager ~lpage in
    let replica node = Numa_manager.replica_frame manager ~lpage ~node in
    let replicas =
      List.filter_map
        (fun node -> Option.map (fun f -> (node, f)) (replica node))
        (Numa_manager.replica_nodes manager ~lpage)
    in
    let mappings = Mmu.entries_of_lpage mmu ~lpage in
    mappings_checked := !mappings_checked + List.length mappings;
    replicas_checked := !replicas_checked + List.length replicas;
    (* Copies live where the directory says, in frames the pool still
       considers allocated, on memories that still exist. *)
    List.iter
      (fun (node, (frame : Frame_table.local_frame)) ->
        if frame.node <> node then
          bad "page %d: replica indexed under node %d lives in node %d's frame" lpage
            node frame.node;
        if Frame_table.frame_is_free frames frame then
          bad "page %d: replica on node %d points at freed frame %d" lpage node frame.id;
        if not (Frame_table.node_online frames ~node) then
          bad "page %d: replica survives on offline node %d" lpage node)
      replicas;
    (* Every mapping resolves to the copy the directory prescribes. *)
    let mapped_via_replica (e : Mmu.entry) ~node =
      match e.phys with
      | Mmu.Frame f -> replica node = Some f
      | Mmu.Global_frame _ -> false
    in
    (match state with
    | Numa_manager.Untouched ->
        if replicas <> [] then bad "untouched page %d holds local copies" lpage;
        if mappings <> [] then bad "untouched page %d is mapped" lpage
    | Numa_manager.Global_writable ->
        if replicas <> [] then bad "global page %d holds local copies" lpage;
        List.iter
          (fun (e : Mmu.entry) ->
            match e.phys with
            | Mmu.Global_frame l when l = lpage -> ()
            | Mmu.Global_frame _ | Mmu.Frame _ ->
                bad "global page %d: mapping on cpu %d bypasses the global frame" lpage
                  e.cpu)
          mappings
    | Numa_manager.Read_only ->
        if replicas = [] then bad "read-only page %d has no replicas" lpage;
        List.iter
          (fun (e : Mmu.entry) ->
            if Prot.compare e.prot Prot.Read_only > 0 then
              bad "read-only page %d mapped writable on cpu %d" lpage e.cpu;
            if not (mapped_via_replica e ~node:e.cpu) then
              bad "read-only page %d: mapping on cpu %d not via its node's replica" lpage
                e.cpu)
          mappings;
        (* Replicas of a clean page are caches of the global master: every
           cell must read back the coherent value. *)
        let master = Frame_table.read_global frames ~lpage in
        List.iter
          (fun (node, frame) ->
            let cached = Frame_table.read_local frame in
            if cached <> master then
              bad "read-only page %d: node %d caches %d but the global master holds %d"
                lpage node cached master)
          replicas
    | Numa_manager.Local_writable owner -> (
        (match replicas with
        | [ (node, _) ] when node = owner -> ()
        | _ ->
            bad "local-writable page %d: copies not exactly the owner %d's" lpage owner);
        List.iter
          (fun (e : Mmu.entry) ->
            if e.cpu <> owner then
              bad "local-writable page %d mapped on non-owner cpu %d" lpage e.cpu
            else if not (mapped_via_replica e ~node:owner) then
              bad "local-writable page %d: mapping not via the owner's frame" lpage)
          mappings;
        match replica owner with
        | Some frame when not (Frame_table.node_online frames ~node:owner) ->
            (* Redundant with the generic offline check, but names the real
               hazard: a dirty owner on a dead node is lost data. *)
            bad "local-writable page %d: dirty owner frame %d on offline node %d" lpage
              frame.id owner
        | Some _ | None -> ())
    | Numa_manager.Homed home ->
        (match replicas with
        | [ (node, _) ] when node = home -> ()
        | _ -> bad "homed page %d: copies not exactly the home %d's" lpage home);
        List.iter
          (fun (e : Mmu.entry) ->
            if not (mapped_via_replica e ~node:home) then
              bad "homed page %d: mapping on cpu %d not via the home frame" lpage e.cpu)
          mappings);
    (* A pinned page lives in global memory by decree; local copies mean
       the policy and the protocol disagree. Homed pages are exempt — the
       pragma overrides the policy. *)
    (match (pinned, state) with
    | Some _, Numa_manager.Homed _ | None, _ -> ()
    | Some is_pinned, _ ->
        if is_pinned ~lpage && replicas <> [] then
          bad "pinned page %d holds %d local cop%s" lpage (List.length replicas)
            (if List.length replicas = 1 then "y" else "ies"));
    (* The per-frame paging relation (checkable only under the full VM
       stack, whose zero_page/install_page discipline the states assume —
       hence the [pool] gate): nothing maps into an entry whose content
       is absent or still in flight, a free logical page's entry is
       Empty, and no page-in bracket is left open across a quiescent
       point. *)
    match (paging, pool) with
    | Some pg, Some pool ->
        let pst = Paging.state pg ~lpage in
        (match pst with
        | Paging.Empty | Paging.Reading ->
            if mappings <> [] then
              bad "page %d: mapped while its paging entry is %s" lpage
                (Paging.state_name pst);
            if replicas <> [] then
              bad "page %d: local copies while its paging entry is %s" lpage
                (Paging.state_name pst)
        | Paging.Clean | Paging.Dirty | Paging.Writeback -> ());
        if pst = Paging.Reading then
          bad "page %d: paging entry stuck in Reading between requests" lpage;
        if (not (Numa_vm.Lpage_pool.is_allocated pool lpage)) && pst <> Paging.Empty
        then
          bad "page %d: on the free list but its paging entry is %s" lpage
            (Paging.state_name pst)
    | _ -> ()
  in
  for i = 0 to Bytes.length held - 1 do
    let bits = Bytes.get_uint8 held i in
    if bits <> 0 then
      for b = 0 to 7 do
        if bits land (1 lsl b) <> 0 then check_page ((i lsl 3) + b)
      done
  done;
  (* RWLock-style pending-state bookkeeping: the in-flight writeback list
     and the per-entry Writeback states must be the same set (and the
     Dirty-only entry arrow makes "Writeback implies previously Dirty"
     structural — violating it raises at the transition itself). *)
  (match paging with
  | Some pg ->
      let inflight = Paging.in_flight_lpages pg in
      List.iter
        (fun lpage ->
          if Paging.state pg ~lpage <> Paging.Writeback then
            bad "page %d: on the in-flight writeback list but its entry is %s" lpage
              (Paging.state_name (Paging.state pg ~lpage)))
        inflight;
      if !n_writeback <> List.length inflight then
        bad "%d entries in Writeback but %d on the in-flight list" !n_writeback
          (List.length inflight)
  | None -> ());
  (* The page-table relation, when tables are materialised: the master
     table is an exact image of the MMU's forward map, every replica
     table agrees with the master (no shootdown is in flight between
     requests, so a disagreement is a stale replica PTE — the numaPTE
     failure mode), and no table page or replica PTE reaches a freed
     frame or a node that no longer exists. *)
  (match Mmu.pt mmu with
  | None -> ()
  | Some pt ->
      let pte_descr (p : Pt.pte) =
        match p.Pt.pte_frame with
        | Some (node, id) -> Printf.sprintf "lpage %d via frame %d@%d" p.Pt.pte_lpage id node
        | None -> Printf.sprintf "lpage %d via the global frame" p.Pt.pte_lpage
      in
      let same_pte (a : Pt.pte) (b : Pt.pte) =
        a.Pt.pte_lpage = b.Pt.pte_lpage
        && a.Pt.pte_prot = b.Pt.pte_prot
        && a.Pt.pte_frame = b.Pt.pte_frame
      in
      let check_target ~what ~pmap ~cpu ~vpage (p : Pt.pte) =
        match p.Pt.pte_frame with
        | None -> ()
        | Some (node, id) ->
            if Frame_table.id_is_free frames ~node ~id then
              bad "pmap %d %s PTE (cpu %d, vpage %d) maps freed frame %d on node %d"
                pmap what cpu vpage id node;
            if not (Frame_table.node_online frames ~node) then
              bad "pmap %d %s PTE (cpu %d, vpage %d) maps frame %d on offline node %d"
                pmap what cpu vpage id node
      in
      List.iter
        (fun pmap ->
          (* Master table vs the MMU: same mapping set, same targets. *)
          let entries = Mmu.entries_of_pmap mmu ~pmap in
          List.iter
            (fun (e : Mmu.entry) ->
              incr pt_checked;
              match Pt.master_pte pt ~pmap ~cpu:e.cpu ~vpage:e.vpage with
              | None ->
                  bad "pmap %d: mapping (cpu %d, vpage %d) has no master PTE" pmap
                    e.cpu e.vpage
              | Some p ->
                  let expect =
                    {
                      Pt.pte_lpage = e.lpage;
                      pte_frame =
                        (match e.phys with
                        | Mmu.Frame f -> Some (f.Frame_table.node, f.Frame_table.id)
                        | Mmu.Global_frame _ -> None);
                      pte_prot = e.prot;
                    }
                  in
                  if not (same_pte p expect) then
                    bad "pmap %d: master PTE (cpu %d, vpage %d) holds %s but the MMU \
                         maps %s"
                      pmap e.cpu e.vpage (pte_descr p) (pte_descr expect))
            entries;
          let n_master = List.length (Pt.master_ptes pt ~pmap) in
          if n_master <> List.length entries then
            bad "pmap %d: master table holds %d PTEs but the MMU holds %d mappings" pmap
              n_master (List.length entries);
          (* Replica tables vs the master. *)
          List.iter
            (fun node ->
              if not (Frame_table.node_online frames ~node) then
                bad "pmap %d: page-table replica survives on offline node %d" pmap node;
              let what = Printf.sprintf "replica(node %d)" node in
              let ptes = Pt.replica_ptes pt ~pmap ~node in
              List.iter
                (fun ((cpu, vpage), (p : Pt.pte)) ->
                  incr pt_checked;
                  check_target ~what ~pmap ~cpu ~vpage p;
                  match Pt.master_pte pt ~pmap ~cpu ~vpage with
                  | None ->
                      bad "pmap %d: STALE replica PTE on node %d (cpu %d, vpage %d) %s \
                           — master holds no entry"
                        pmap node cpu vpage (pte_descr p)
                  | Some m ->
                      if not (same_pte p m) then
                        bad "pmap %d: STALE replica PTE on node %d (cpu %d, vpage %d) \
                             holds %s but the master holds %s"
                          pmap node cpu vpage (pte_descr p) (pte_descr m))
                ptes;
              let n_replica = List.length ptes in
              if n_replica <> n_master then
                bad "pmap %d: replica table on node %d holds %d PTEs but the master \
                     holds %d"
                  pmap node n_replica n_master)
            (Pt.replica_nodes pt ~pmap))
        (Pt.pmaps pt);
      (* Table pages themselves: allocated frames on live nodes, and the
         per-pool page-table census agrees with the tables' own count. *)
      let counted = Array.make (Frame_table.n_pools frames) 0 in
      List.iter
        (fun (node, (f : Frame_table.local_frame)) ->
          counted.(node) <- counted.(node) + 1;
          if Frame_table.frame_is_free frames f then
            bad "page-table page in freed frame %d on node %d" f.Frame_table.id node;
          if not (Frame_table.node_online frames ~node) then
            bad "page-table page survives in frame %d on offline node %d"
              f.Frame_table.id node)
        (Pt.table_frames pt);
      Array.iteri
        (fun node n ->
          let census = Frame_table.pt_in_use frames ~node in
          if census <> n then
            bad "node %d pool counts %d page-table frames but the tables hold %d" node
              census n)
        counted);
  {
    pages_checked = n_pages;
    mappings_checked = !mappings_checked;
    replicas_checked = !replicas_checked;
    paging_checked = (if paging_gated then n_pages else 0);
    pt_checked = !pt_checked;
    violations = List.rev !violations;
  }

let result r =
  match r.violations with
  | [] -> Ok ()
  | v :: _ ->
      Error
        (Printf.sprintf "%d invariant violation%s, first: %s" (List.length r.violations)
           (if List.length r.violations = 1 then "" else "s")
           v)

let pp ppf r =
  Format.fprintf ppf "@[<v>checked %d pages, %d mappings, %d replicas: " r.pages_checked
    r.mappings_checked r.replicas_checked;
  (match r.violations with
  | [] -> Format.pp_print_string ppf "coherent"
  | vs ->
      Format.fprintf ppf "%d VIOLATIONS" (List.length vs);
      List.iter (fun v -> Format.fprintf ppf "@,  %s" v) vs);
  Format.fprintf ppf "@]"
