(** The NUMA manager: effectful executor of the consistency {!Protocol}.

    Local memories are managed as caches over global memory (section 2.3.1):
    each logical page is permanently backed by its global frame and may
    additionally be replicated read-only in any number of local memories or
    held writable in exactly one. This module owns that directory and
    performs the protocol's sync / flush / unmap / copy actions against the
    {!Numa_machine.Frame_table} and {!Numa_machine.Mmu}, charging their
    simulated cost to the requesting CPU's system time.

    Policy is deliberately absent here: the caller (the pmap manager)
    supplies a {!Protocol.decision} per request and is told whether the
    request moved the page between local memories, which is what the policy
    layer counts. *)

open Numa_machine

type state =
  | Untouched
      (** no content yet (zero-fill pending) or freshly installed in global;
          no copies, no mappings *)
  | Read_only  (** replicated; global frame is the clean master *)
  | Local_writable of int  (** owned by one node; global master may be stale *)
  | Global_writable  (** lives in global; never cached *)
  | Homed of int
      (** section 4.4 extension: permanently resident in one node's local
          memory under a [Homed] pragma; other processors reference it
          remotely. Like a pinned page, it never moves again. *)

type request_result = {
  final_state : state;
  moved : bool;
      (** the request transferred the page's contents/copies away from some
          other node while placing it locally: the event the move-counting
          policy observes *)
}

type t

val create :
  ?obs:Numa_obs.Hub.t ->
  config:Config.t ->
  frames:Frame_table.t ->
  mmu:Mmu.t ->
  sink:Cost_sink.t ->
  stats:Numa_stats.t ->
  unit ->
  t
(** [obs] (default: a fresh hub with no sinks) receives the protocol's
    lifecycle events — replica create/flush, sync-to-global, zero fill,
    page move, local-memory fallback, page free. Events are constructed
    only when a sink is attached: each site tests [Hub.enabled] first. *)

val set_reclaim : t -> (avoid:int -> by_cpu:int -> bool) -> unit
(** Install the pager hook used when a local-frame allocation fails: the
    callback should try to evict pages (never logical page [avoid], which
    is the one being placed), charging any eviction writebacks to
    [by_cpu] (the allocating node), and return whether anything was
    freed, in which case the allocation is retried once before the LOCAL
    decision falls back to GLOBAL. Counted in [reclaim_retries] /
    [reclaim_rescues]. *)

val request :
  t -> lpage:int -> cpu:int -> access:Access.t -> decision:Protocol.decision ->
  request_result
(** Bring the page into a state satisfying the access on [cpu] under the
    policy decision, per Tables 1 and 2. After the call the caller may map
    the page on [cpu] (read-only if the state is [Read_only]). *)

val request_homed : t -> lpage:int -> cpu:int -> home:int -> request_result
(** Place (or keep) the page in [home]'s local memory, cleaning up any
    other cache state first — the straightforward protocol extension for
    remote references the paper sketches in section 4.4. Falls back to
    global memory when the home node's local memory is full. *)

val state_of : t -> lpage:int -> state

val replica_frame : t -> lpage:int -> node:int -> Frame_table.local_frame option
(** The node's cached copy, if any. *)

val replica_nodes : t -> lpage:int -> int list
(** Nodes holding a copy, in no order of node number. The protocol
    flushes replicas in this list's order, so the order of the flushes
    and of their events follows it. *)

val moves_of : t -> lpage:int -> int
(** Inter-memory moves this page has made since (re)allocation. *)

val iter_held : t -> (int -> unit) -> unit
(** [iter_held t f] calls [f lpage], in increasing order, on every page
    whose directory entry is not [Untouched] or still holds a replica:
    one pass over the directory itself. Every other page is [Untouched]
    with no copy anywhere. *)

val migrate_owned_pages : t -> src:int -> dst:int -> int
(** Kernel page migration (the section 4.7 load-balancing requirement:
    "migrate processes to new homes and move their local pages with
    them"): every page local-writable on [src] is synced, flushed and
    re-established local-writable on [dst]. Deliberate migration does not
    count against the policy's move threshold. Pages that do not fit in
    [dst]'s local memory are left in global memory. Returns the number of
    pages moved. *)

val drain_node : t -> node:int -> by_cpu:int -> int
(** Graceful degradation when a node's local memory goes offline: sync
    every dirty copy the node owns back to global, demote its homed pages,
    flush its read-only replicas, and return the page copies evacuated.
    Contents are never lost — pages the node served turn [Global_writable]
    (LOCAL degrades to GLOBAL). The caller takes the frame pool offline
    ({!Numa_machine.Frame_table.set_node_online}) afterwards; draining
    first keeps every free in order. Counted in [node_drains] /
    [drained_pages]. *)

val drop_mapping : t -> by_cpu:int -> Mmu.entry -> unit
(** Remove one mapping, count it in [mappings_dropped] and charge
    [by_cpu] a TLB shootdown: the one mapping drop that every protocol
    action and the pmap layer's remove paths share. *)

val drop_all_mappings : t -> lpage:int -> int
(** Drop every mapping of the page with {!drop_mapping}, each charged to
    its own CPU, in {!Numa_machine.Mmu.entries_of_lpage}'s order, and
    return how many it dropped. It reads the page's reverse bucket in
    place, so it builds no list. *)

val spurious_shootdown : t -> lpage:int -> int
(** Fault injection: drop every live mapping of the page (charging each
    mapping's CPU a TLB shootdown), as hardware glitches or overly eager
    kernels do. Mappings are re-established by the next fault, so this
    perturbs timing, never contents. Returns mappings dropped. *)

val mark_zero_fill : t -> lpage:int -> unit
(** The page will be zero-filled lazily at first placement. Only valid on
    an [Untouched] page. *)

val install_content : t -> lpage:int -> content:int -> unit
(** Page-in path: set the global master's contents. Only valid on an
    [Untouched] page. *)

val sync_if_dirty : t -> lpage:int -> unit
(** Ensure the global master holds current contents (copies a
    local-writable owner's frame back). Page-out path. *)

val reset_page : t -> lpage:int -> unit
(** Frame-free path (pmap_free_page): drop every mapping and cached copy,
    record the final move count, and forget placement history, returning
    the page to [Untouched]. *)

val pp_state : Format.formatter -> state -> unit
