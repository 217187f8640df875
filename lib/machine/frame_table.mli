(** Physical page frames.

    Following the paper's two-level model, global memory is identical in
    size to the Mach logical page pool: logical page [l] *is* global frame
    [l] (section 2.3.1). Local memories are caches: local frames are
    allocated on demand from a fixed per-node pool when the NUMA manager
    replicates or migrates a page, and freed when copies are flushed.

    Each frame carries a single integer cell standing in for the page's
    contents. The protocol's copy/sync operations move the cell, which lets
    the test suite check coherence (a read must observe the value of the
    most recent write) without simulating full page data.

    Fault injection can take a node's pool {e offline} (allocation refused,
    capacity reported as 0 so callers fall back to global memory) or
    {e squeeze} it to a fraction of its capacity; frames already handed out
    stay valid either way, so the NUMA manager can still sync and free them
    while draining a dying node. *)

type local_frame = private {
  node : int;  (** owning local memory *)
  id : int;  (** unique among this node's frames *)
  mutable cell : int;
  mutable lpage : int;
      (** the logical page this frame currently caches, [-1] when free or
          not yet bound; lets stores through the frame reach the paging
          state machine's dirty tracking *)
}

type t

val create : Config.t -> t

val attach_paging : t -> Paging.t -> unit
(** Install the paging state machine: from then on {!write_global},
    {!write_local} and the zero-fills mark the written page Dirty. Without
    it (the default, and every direct Frame_table test) all hooks are
    no-ops. *)

val paging : t -> Paging.t option

(** {1 Global frames} *)

val read_global : t -> lpage:int -> int
val write_global : t -> lpage:int -> int -> unit

(** {1 Local frames} *)

val alloc_local : t -> node:int -> local_frame option
(** Take a frame from a node's pool; [None] when the local memory is full,
    squeezed to its limit, or offline (the caller then falls back to a
    GLOBAL placement, possibly after reclaiming). *)

val free_local : t -> local_frame -> unit
(** Return a frame to its pool (works on an offline pool: draining a dead
    node frees its frames). Raises [Invalid_argument] — naming the frame
    and node — on double free. *)

val alloc_pt : t -> node:int -> local_frame option
(** {!alloc_local}, but the frame will back a page-table page: it draws
    from the same pool (table pages compete with data pages for local
    memory, and a squeezed or offline pool refuses them identically) and
    is additionally counted in {!pt_in_use} so the invariant sweep can
    audit the split. *)

val free_pt : t -> local_frame -> unit
(** Return a page-table frame taken with {!alloc_pt}. Raises
    [Invalid_argument] when the pool's page-table census is already zero
    (the frame cannot have been a table page). *)

val pt_in_use : t -> node:int -> int
(** How many of the node's in-use frames currently back page-table
    pages. *)

val n_pools : t -> int
(** How many local pools there are: one per CPU node. *)

val local_in_use : t -> node:int -> int

val local_capacity : t -> node:int -> int
(** Effective capacity: the squeeze limit while online, 0 while offline.
    The NUMA manager's "node full" pre-demotion reads this, so LOCAL
    answers degrade to GLOBAL on a dead or squeezed node. *)

val node_online : t -> node:int -> bool
val set_node_online : t -> node:int -> bool -> unit

val squeeze : t -> node:int -> frac:float -> int
(** Shrink (or restore, [frac = 1.]) the node's allocation limit to
    [frac] of its capacity, rounding half-up (so [frac = 1.0] restores
    full capacity exactly); returns the new limit. Frames in use above the
    limit stay valid — only future allocations are gated. *)

val frame_is_free : t -> local_frame -> bool
(** Whether the frame currently sits in its pool's free list (a mapping or
    replica pointing at such a frame is a protocol invariant violation). *)

val id_is_free : t -> node:int -> id:int -> bool
(** {!frame_is_free} of the frame [id] of [node]'s pool, named as a page
    table entry names it. *)

val read_local : local_frame -> int

val write_local : t -> local_frame -> int -> unit
(** Store through a local mapping; marks the frame's bound page Dirty
    when paging is attached. *)

(** {1 Page transfers}

    These move cell contents the way the kernel's copy loops move words;
    they do no cost accounting (the caller charges {!Cost}).
    [copy_global_to_local] binds the frame to [lpage];
    [copy_local_to_global] deliberately does {e not} re-mark the page
    Dirty — the store that dirtied the local copy already did. *)

val copy_global_to_local : t -> lpage:int -> local_frame -> unit
val copy_local_to_global : t -> local_frame -> lpage:int -> unit

val zero_local : t -> lpage:int -> local_frame -> unit
(** Zero-fill a local frame as the first materialisation of [lpage];
    binds the frame and marks the page Dirty. *)

val zero_global : t -> lpage:int -> unit
