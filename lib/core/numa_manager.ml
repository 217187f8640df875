open Numa_machine
module Hub = Numa_obs.Hub
module Event = Numa_obs.Event

type state = Untouched | Read_only | Local_writable of int | Global_writable | Homed of int

type request_result = { final_state : state; moved : bool }

(* A page's cached copies. Lookups index [frames] by node. [order] holds
   the same nodes in the fold order of a node-keyed hash table: that is
   the order of [replica_nodes], which fixes the order of [Replica_flush]
   events and of their shootdown charges. *)
type copies = {
  frames : Frame_table.local_frame option array;  (** node -> its copy *)
  order : int Hash_order.t;
}

type page = {
  mutable state : state;
  mutable copies : copies option;  (** made on the page's first copy *)
  mutable needs_zero : bool;
  mutable moves : int;
}

type t = {
  config : Config.t;
  topo : Topo.t;  (** resolved once; prices protocol page copies per node pair *)
  frames : Frame_table.t;
  mmu : Mmu.t;
  sink : Cost_sink.t;
  stats : Numa_stats.t;
  obs : Hub.t;
      (** each emission site tests [Hub.enabled] before it builds its
          event, so a run with no sink allocates no event: one branch *)
  pages : page array;
  mutable reclaim : (avoid:int -> by_cpu:int -> bool) option;
      (** page-out hook: try to free frames, sparing logical page [avoid]
          and charging eviction writebacks to [by_cpu]; returns whether
          anything was evicted *)
}

let create ?obs ~config ~frames ~mmu ~sink ~stats () =
  let fresh _ = { state = Untouched; copies = None; needs_zero = false; moves = 0 } in
  let obs = match obs with Some h -> h | None -> Hub.create () in
  {
    config;
    topo = Config.topology config;
    frames;
    mmu;
    sink;
    stats;
    obs;
    pages = Array.init config.Config.global_pages fresh;
    reclaim = None;
  }

let set_reclaim t f = t.reclaim <- Some f

let page t lpage =
  if lpage < 0 || lpage >= Array.length t.pages then
    invalid_arg "Numa_manager: logical page out of range";
  t.pages.(lpage)

let state_of t ~lpage = (page t lpage).state

(* The frame of [node]'s copy, if it holds one. *)
let copy_on p ~node =
  match p.copies with
  | Some c when node >= 0 && node < Array.length c.frames -> c.frames.(node)
  | Some _ | None -> None

let n_copies p = match p.copies with Some c -> Hash_order.length c.order | None -> 0

let replica_frame t ~lpage ~node = copy_on (page t lpage) ~node

let replica_nodes t ~lpage =
  match (page t lpage).copies with
  | Some c -> Hash_order.to_list c.order
  | None -> []

let moves_of t ~lpage = (page t lpage).moves

let iter_held t f =
  for lpage = 0 to Array.length t.pages - 1 do
    let p = t.pages.(lpage) in
    match p.state with
    | Untouched -> if n_copies p > 0 then f lpage
    | Read_only | Local_writable _ | Global_writable | Homed _ -> f lpage
  done

let charge t ~cpu ~cat ~lpage ns = Cost_sink.add t.sink ~cpu ~cat ~lpage ns

(* A failed local-frame allocation retries once through the pager: page-out
   may flush replicas off the full node. Pointless when the node is
   offline or squeezed to zero — allocation is refused outright there, so
   LOCAL degrades straight to GLOBAL. [avoid] spares the page being
   placed from its own reclaim pass. *)
let reclaim_once t ~lpage ~node =
  match t.reclaim with
  | Some reclaim when Frame_table.local_capacity t.frames ~node > 0 ->
      t.stats.reclaim_retries <- t.stats.reclaim_retries + 1;
      reclaim ~avoid:lpage ~by_cpu:node
  | Some _ | None -> false

let alloc_local_reclaiming t ~lpage ~node =
  match Frame_table.alloc_local t.frames ~node with
  | Some frame -> Some frame
  | None ->
      if not (reclaim_once t ~lpage ~node) then None
      else (
        match Frame_table.alloc_local t.frames ~node with
        | Some frame ->
            t.stats.reclaim_rescues <- t.stats.reclaim_rescues + 1;
            Some frame
        | None -> None)

(* --- primitive protocol actions ------------------------------------- *)

let drop_mapping t ~by_cpu (e : Mmu.entry) =
  Mmu.remove_entry t.mmu e;
  t.stats.mappings_dropped <- t.stats.mappings_dropped + 1;
  charge t ~cpu:by_cpu ~cat:Numa_obs.Profile.Tlb_shootdown ~lpage:e.lpage
    (Cost.tlb_shootdown_ns t.config)

(* Drop [lpage]'s mappings on CPU [node], or all of them when [node] is
   -1, each charged to [by_cpu], or to its own CPU when [by_cpu] is -1;
   returns how many it dropped. The walk reads the page's reverse bucket
   in place, in [Mmu.entries_of_lpage]'s order: a dropped mapping leaves
   its index to the next one, so only a mapping that stays moves the
   index on. *)
let drop_mappings t ~lpage ~node ~by_cpu =
  let i = ref 0 and dropped = ref 0 in
  while !i < Mmu.n_entries_of_lpage t.mmu ~lpage do
    let (e : Mmu.entry) = Mmu.entry_of_lpage t.mmu ~lpage !i in
    let n = Mmu.n_entries_of_lpage t.mmu ~lpage in
    if node < 0 || e.cpu = node then begin
      drop_mapping t ~by_cpu:(if by_cpu < 0 then e.cpu else by_cpu) e;
      incr dropped
    end;
    if Mmu.n_entries_of_lpage t.mmu ~lpage = n then incr i
  done;
  !dropped

let drop_all_mappings t ~lpage = drop_mappings t ~lpage ~node:(-1) ~by_cpu:(-1)

(* Copy a node's dirty frame back to the global master. *)
let sync_node t ~lpage ~node ~by_cpu =
  match copy_on (page t lpage) ~node with
  | None -> invalid_arg "Numa_manager.sync_node: node holds no copy"
  | Some frame ->
      Frame_table.copy_local_to_global t.frames frame ~lpage;
      charge t ~cpu:by_cpu ~cat:Numa_obs.Profile.Page_copy ~lpage
        (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:by_cpu
           ~src:(Topo.Node node) ~dst:(Topo.Shared lpage));
      t.stats.syncs_to_global <- t.stats.syncs_to_global + 1;
      if Hub.enabled t.obs then Hub.emit t.obs (Event.Sync_to_global { lpage; node })

(* Drop a node's cached copy (mappings first, then the frame). The
   node's mappings all point at its copy: we never map remote frames. *)
let flush_node t ~lpage ~node ~by_cpu =
  let p = page t lpage in
  match copy_on p ~node with
  | None -> ()
  | Some frame ->
      ignore (drop_mappings t ~lpage ~node ~by_cpu);
      Frame_table.free_local t.frames frame;
      let c = Option.get p.copies in
      c.frames.(node) <- None;
      Hash_order.remove c.order ~same:Int.equal node;
      t.stats.replicas_flushed <- t.stats.replicas_flushed + 1;
      if Hub.enabled t.obs then Hub.emit t.obs (Event.Replica_flush { lpage; node })

(* Take the page away from its writable owner [node]: sync, then flush. *)
let evict_owner t ~lpage ~node ~by_cpu =
  sync_node t ~lpage ~node ~by_cpu;
  flush_node t ~lpage ~node ~by_cpu

let unmap_all t ~lpage ~by_cpu = ignore (drop_mappings t ~lpage ~node:(-1) ~by_cpu)

(* Fill [frame] as [node]'s copy of the page, charged to [cpu]: copy the
   global master in, or, on a first touch still due its zero fill, zero
   the frame in place. The lazy zero-fill then lands directly in the
   right memory, avoiding the write-zeros-to-global-then-copy round trip
   (section 2.3.1). *)
let place_copy t p ~lpage ~cpu ~node frame =
  if p.needs_zero then begin
    Frame_table.zero_local t.frames ~lpage frame;
    charge t ~cpu ~cat:Numa_obs.Profile.Zero_fill ~lpage
      (Cost.place_page_zero_ns t.config ~topo:t.topo ~cpu ~dst:(Topo.Node node));
    t.stats.zero_fills_local <- t.stats.zero_fills_local + 1;
    p.needs_zero <- false;
    if Hub.enabled t.obs then Hub.emit t.obs (Event.Zero_fill { lpage; node = Some node })
  end
  else begin
    Frame_table.copy_global_to_local t.frames ~lpage frame;
    charge t ~cpu ~cat:Numa_obs.Profile.Page_copy ~lpage
      (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu ~src:(Topo.Shared lpage)
         ~dst:(Topo.Node node));
    t.stats.copies_to_local <- t.stats.copies_to_local + 1
  end;
  let c =
    match p.copies with
    | Some c -> c
    | None ->
        let c =
          { frames = Array.make (Topo.cpu_nodes t.topo) None; order = Hash_order.create () }
        in
        p.copies <- Some c;
        c
  in
  (* A node that already held a copy keeps its place in the order. *)
  if Option.is_none c.frames.(node) then
    Hash_order.add c.order ~hash:(Hashtbl.hash node) node;
  c.frames.(node) <- Some frame;
  if Hub.enabled t.obs then Hub.emit t.obs (Event.Replica_create { lpage; node })

(* Zero-fill the global master if the page is still due its zero fill. *)
let zero_global t p ~lpage ~cpu =
  if p.needs_zero then begin
    Frame_table.zero_global t.frames ~lpage;
    charge t ~cpu ~cat:Numa_obs.Profile.Zero_fill ~lpage
      (Cost.place_page_zero_ns t.config ~topo:t.topo ~cpu ~dst:(Topo.Shared lpage));
    t.stats.zero_fills_global <- t.stats.zero_fills_global + 1;
    p.needs_zero <- false;
    if Hub.enabled t.obs then Hub.emit t.obs (Event.Zero_fill { lpage; node = None })
  end

(* A LOCAL answer the local memory could not hold: the page goes GLOBAL. *)
let fall_back t ~lpage ~cpu =
  t.stats.local_fallbacks <- t.stats.local_fallbacks + 1;
  if Hub.enabled t.obs then Hub.emit t.obs (Event.Local_fallback { lpage; cpu })

(* Ensure [cpu] holds a local copy; the caller has checked capacity. *)
let copy_to_local t p ~lpage ~cpu =
  if Option.is_none (copy_on p ~node:cpu) then
    match Frame_table.alloc_local t.frames ~node:cpu with
    | None -> invalid_arg "Numa_manager.copy_to_local: pool exhausted (unchecked)"
    | Some frame -> place_copy t p ~lpage ~cpu ~node:cpu frame

(* --- first touch ------------------------------------------------------ *)

let first_touch t p ~lpage ~cpu ~access ~decision =
  let frame =
    match decision with
    | Protocol.Place_global -> None
    | Protocol.Place_local ->
        let frame = alloc_local_reclaiming t ~lpage ~node:cpu in
        if Option.is_none frame then fall_back t ~lpage ~cpu;
        frame
  in
  (match frame with
  | None ->
      zero_global t p ~lpage ~cpu;
      p.state <- Global_writable
  | Some frame ->
      (* A read of a page still due its zero fill leaves it Read_only,
         whose invariant is that the global frame is the clean master;
         later replicas copy from it. Zero the master cell too — on the
         real machine the second replica would be copied from the first
         at comparable cost, so only the content bookkeeping is needed
         here. *)
      if p.needs_zero && access = Access.Load then Frame_table.zero_global t.frames ~lpage;
      place_copy t p ~lpage ~cpu ~node:cpu frame;
      p.state <-
        (match access with Access.Load -> Read_only | Access.Store -> Local_writable cpu));
  { final_state = p.state; moved = false }

(* --- steady-state requests ------------------------------------------- *)

let view_of_state ~cpu = function
  | Read_only -> Protocol.Sv_read_only
  | Global_writable -> Protocol.Sv_global_writable
  | Local_writable owner when owner = cpu -> Protocol.Sv_local_writable_own
  | Local_writable _ -> Protocol.Sv_local_writable_other
  | Untouched -> invalid_arg "Numa_manager.view_of_state: untouched"
  | Homed _ -> invalid_arg "Numa_manager.view_of_state: homed pages bypass the protocol"

(* A LOCAL decision that will need a fresh frame on a full node is demoted
   to GLOBAL up front, before any cleanup runs. *)
let needs_new_frame t ~lpage ~cpu outcome =
  List.mem Protocol.Copy_to_local outcome.Protocol.actions
  && Option.is_none (copy_on (page t lpage) ~node:cpu)

let node_is_full t ~node =
  Frame_table.local_in_use t.frames ~node >= Frame_table.local_capacity t.frames ~node

(* Pre-demotion check: a full node gets one reclaim attempt before the
   LOCAL decision is demoted to GLOBAL. *)
let node_still_full t ~lpage ~node =
  node_is_full t ~node
  &&
  if reclaim_once t ~lpage ~node && not (node_is_full t ~node) then begin
    t.stats.reclaim_rescues <- t.stats.reclaim_rescues + 1;
    false
  end
  else true

(* Flush the copies of [nodes] but [except]'s (-1 for none), charged to
   [by_cpu], in the list's order; returns how many it flushed. *)
let rec flush_nodes t ~lpage ~by_cpu ~except = function
  | [] -> 0
  | node :: rest when node = except -> flush_nodes t ~lpage ~by_cpu ~except rest
  | node :: rest ->
      flush_node t ~lpage ~node ~by_cpu;
      1 + flush_nodes t ~lpage ~by_cpu ~except rest

(* Run one protocol action of [cpu]'s request; returns how many other
   nodes' copies it flushed. *)
let run_action t p ~lpage ~cpu = function
  | Protocol.Sync_and_flush_own | Protocol.Sync_and_flush_other -> (
      (* An [_other] owner is never [cpu] (see [view_of_state]). *)
      match p.state with
      | Local_writable o ->
          evict_owner t ~lpage ~node:o ~by_cpu:cpu;
          if o <> cpu then 1 else 0
      | Untouched | Read_only | Global_writable | Homed _ ->
          invalid_arg "Numa_manager.execute: sync on non-owned page")
  | Protocol.Flush_all ->
      (* Only the GLOBAL row flushes all, and a GLOBAL request never moves
         the page, so these flushes count for nothing. *)
      ignore (flush_nodes t ~lpage ~by_cpu:cpu ~except:(-1) (replica_nodes t ~lpage));
      0
  | Protocol.Flush_other ->
      flush_nodes t ~lpage ~by_cpu:cpu ~except:cpu (replica_nodes t ~lpage)
  | Protocol.Unmap_all ->
      unmap_all t ~lpage ~by_cpu:cpu;
      0
  | Protocol.Copy_to_local ->
      copy_to_local t p ~lpage ~cpu;
      0

let rec run_actions t p ~lpage ~cpu = function
  | [] -> 0
  | action :: rest ->
      let flushed = run_action t p ~lpage ~cpu action in
      flushed + run_actions t p ~lpage ~cpu rest

let execute t p ~lpage ~cpu ~(outcome : Protocol.outcome) =
  let flushed_other = run_actions t p ~lpage ~cpu outcome.actions in
  (match outcome.new_state with
  | Protocol.Becomes_read_only -> p.state <- Read_only
  | Protocol.Becomes_local_writable -> p.state <- Local_writable cpu
  | Protocol.Becomes_global_writable -> p.state <- Global_writable);
  flushed_other

(* Un-home a page: sync its contents to global, flush the home frame and
   every mapping; it becomes an ordinary global page. Used when the homing
   pragma is cleared and the page re-enters normal policy control. *)
let demote_homed t ~lpage ~cpu ~home =
  sync_node t ~lpage ~node:home ~by_cpu:cpu;
  unmap_all t ~lpage ~by_cpu:cpu;
  flush_node t ~lpage ~node:home ~by_cpu:cpu;
  (page t lpage).state <- Global_writable

let request t ~lpage ~cpu ~access ~decision =
  charge t ~cpu ~cat:Numa_obs.Profile.Pmap_action ~lpage (Cost.pmap_action_ns t.config);
  let p = page t lpage in
  (match p.state with
  | Homed h -> demote_homed t ~lpage ~cpu ~home:h
  | Untouched | Read_only | Local_writable _ | Global_writable -> ());
  match p.state with
  | Homed _ -> assert false
  | Untouched -> first_touch t p ~lpage ~cpu ~access ~decision
  | Read_only | Local_writable _ | Global_writable ->
      let state = view_of_state ~cpu p.state in
      let decision =
        if
          decision = Protocol.Place_local
          && needs_new_frame t ~lpage ~cpu (Protocol.transition ~access ~state ~decision)
          && node_still_full t ~lpage ~node:cpu
        then begin
          fall_back t ~lpage ~cpu;
          Protocol.Place_global
        end
        else decision
      in
      let outcome = Protocol.transition ~access ~state ~decision in
      let flushed_other = execute t p ~lpage ~cpu ~outcome in
      let moved = decision = Protocol.Place_local && flushed_other > 0 in
      if moved then begin
        p.moves <- p.moves + 1;
        t.stats.moves <- t.stats.moves + 1;
        if Hub.enabled t.obs then
          Hub.emit t.obs (Event.Page_move { lpage; to_node = cpu; moves = p.moves })
      end;
      { final_state = p.state; moved }

let request_homed t ~lpage ~cpu ~home =
  charge t ~cpu ~cat:Numa_obs.Profile.Pmap_action ~lpage (Cost.pmap_action_ns t.config);
  let p = page t lpage in
  (match p.state with
  | Homed h when h = home -> ()
  | state -> (
      (* Clean up whatever cache state exists, leaving contents in the
         global master (the GLOBAL row of the tables). *)
      (match state with
      | Untouched -> zero_global t p ~lpage ~cpu
      | Homed h -> demote_homed t ~lpage ~cpu ~home:h
      | Local_writable o -> evict_owner t ~lpage ~node:o ~by_cpu:cpu
      | Read_only ->
          ignore (flush_nodes t ~lpage ~by_cpu:cpu ~except:(-1) (replica_nodes t ~lpage))
      | Global_writable -> unmap_all t ~lpage ~by_cpu:cpu);
      p.state <- Global_writable;
      match alloc_local_reclaiming t ~lpage ~node:home with
      | None -> fall_back t ~lpage ~cpu
      | Some frame ->
          place_copy t p ~lpage ~cpu ~node:home frame;
          p.state <- Homed home));
  { final_state = p.state; moved = false }

let migrate_owned_pages t ~src ~dst =
  if src = dst then 0
  else begin
    let moved = ref 0 in
    Array.iteri
      (fun lpage p ->
        match p.state with
        | Local_writable o when o = src -> (
            (* The kernel on the destination performs the move. *)
            evict_owner t ~lpage ~node:src ~by_cpu:dst;
            match Frame_table.alloc_local t.frames ~node:dst with
            | Some frame ->
                place_copy t p ~lpage ~cpu:dst ~node:dst frame;
                p.state <- Local_writable dst;
                p.moves <- p.moves + 1;
                if Hub.enabled t.obs then
                  Hub.emit t.obs (Event.Page_move { lpage; to_node = dst; moves = p.moves });
                incr moved
            | None ->
                fall_back t ~lpage ~cpu:dst;
                p.state <- Global_writable)
        | Untouched | Read_only | Local_writable _ | Global_writable | Homed _ -> ())
      t.pages;
    !moved
  end

(* --- graceful degradation ---------------------------------------------- *)

(* Evacuate every cached copy from [node]'s local memory so the node can go
   offline: dirty owners sync back to global first (no data loss), homed
   pages are demoted, read-only replicas just flush. LOCAL placement on
   the node degrades to GLOBAL afterwards — a worse gamma, never a wrong
   answer. Returns the number of page copies evacuated. *)
let drain_node t ~node ~by_cpu =
  let drained = ref 0 in
  Array.iteri
    (fun lpage p ->
      match p.state with
      | Local_writable o when o = node ->
          evict_owner t ~lpage ~node ~by_cpu;
          p.state <- Global_writable;
          incr drained
      | Homed h when h = node ->
          demote_homed t ~lpage ~cpu:by_cpu ~home:h;
          incr drained
      | Read_only when Option.is_some (copy_on p ~node) ->
          flush_node t ~lpage ~node ~by_cpu;
          incr drained;
          if n_copies p = 0 then p.state <- Global_writable
      | Untouched | Read_only | Local_writable _ | Global_writable | Homed _ -> ())
    t.pages;
  t.stats.node_drains <- t.stats.node_drains + 1;
  t.stats.drained_pages <- t.stats.drained_pages + !drained;
  !drained

(* An injected spurious shootdown drops every live mapping of the page.
   Mappings are pure acceleration over the directory, so correctness is
   unaffected — the next reference faults and re-maps. *)
let spurious_shootdown t ~lpage =
  let dropped = drop_all_mappings t ~lpage in
  t.stats.spurious_shootdowns <- t.stats.spurious_shootdowns + 1;
  dropped

(* --- pager / pool integration ----------------------------------------- *)

let mark_zero_fill t ~lpage =
  let p = page t lpage in
  (match p.state with
  | Untouched -> ()
  | Read_only | Local_writable _ | Global_writable | Homed _ ->
      invalid_arg "Numa_manager.mark_zero_fill: page is live");
  p.needs_zero <- true

let install_content t ~lpage ~content =
  let p = page t lpage in
  (match p.state with
  | Untouched -> ()
  | Read_only | Local_writable _ | Global_writable | Homed _ ->
      invalid_arg "Numa_manager.install_content: page is live");
  Frame_table.write_global t.frames ~lpage content;
  p.needs_zero <- false

let sync_if_dirty t ~lpage =
  let p = page t lpage in
  match p.state with
  | Local_writable owner ->
      (* Charged to the owner: the pageout daemon runs kernel code on the
         CPU whose memory holds the dirty copy. *)
      sync_node t ~lpage ~node:owner ~by_cpu:owner
  | Homed home -> sync_node t ~lpage ~node:home ~by_cpu:home
  | Untouched | Read_only | Global_writable -> ()

let reset_page t ~lpage =
  let p = page t lpage in
  Numa_stats.record_final_moves t.stats p.moves;
  if Hub.enabled t.obs then Hub.emit t.obs (Event.Page_freed { lpage; moves = p.moves });
  (* Uncharged removals, in place, as [drop_mappings] walks. *)
  let i = ref 0 in
  while !i < Mmu.n_entries_of_lpage t.mmu ~lpage do
    let n = Mmu.n_entries_of_lpage t.mmu ~lpage in
    Mmu.remove_entry t.mmu (Mmu.entry_of_lpage t.mmu ~lpage !i);
    t.stats.mappings_dropped <- t.stats.mappings_dropped + 1;
    if Mmu.n_entries_of_lpage t.mmu ~lpage = n then incr i
  done;
  (* Reset in place, since the page will likely be copied again. Each copy
     sits in its own node's pool, so freeing them in node order is freeing
     them in any order. *)
  (match p.copies with
  | Some c ->
      for node = 0 to Array.length c.frames - 1 do
        match c.frames.(node) with
        | Some frame ->
            Frame_table.free_local t.frames frame;
            c.frames.(node) <- None
        | None -> ()
      done;
      Hash_order.reset c.order
  | None -> ());
  p.state <- Untouched;
  p.needs_zero <- false;
  p.moves <- 0

let pp_state ppf = function
  | Untouched -> Format.pp_print_string ppf "untouched"
  | Read_only -> Format.pp_print_string ppf "read-only"
  | Local_writable n -> Format.fprintf ppf "local-writable(%d)" n
  | Global_writable -> Format.pp_print_string ppf "global-writable"
  | Homed n -> Format.fprintf ppf "homed(%d)" n
