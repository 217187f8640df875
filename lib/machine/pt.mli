(** Materialised page tables: radix tables with a physical home.

    Until now translation was free: {!Mmu.translate} consulted a hash
    table and no page-table page existed anywhere. This module gives each
    pmap a real multi-level radix table whose interior nodes are backed by
    frames from {!Frame_table} — page-table pages compete with data pages
    for the per-node pools — and prices every software-TLB miss as a
    {e walk}: one fetch per level, each at the matrix latency from the
    walking CPU to the node holding that level's page.

    Two mechanisms sit on top, following Mitosis and numaPTE (PAPERS.md):

    - {e per-node replication}: a full copy of a pmap's table can be
      materialised on other nodes, either eagerly on every online node or
      on demand (capped), so walks resolve from node-local table pages;
    - {e shootdown-aware PTE management}: every PTE install, retarget,
      protection change or removal is propagated synchronously into every
      replica table, each propagation charged as a remote store (plus an
      IPI-style shootdown cost for invalidations). A replica PTE that
      disagrees with the master — reachable only through fault injection —
      is a protocol violation the {!Numa_core.Invariant} sweep reports.

    {e Layout.} Every table is rows of arrays indexed directly
    ({!Rows}), so a walk, an install or a shootdown finds its page and
    its PTE without hashing or allocating a key. Each level has one row of radix pages,
    indexed by path prefix, and each CPU one row of PTEs, indexed by
    vpage. A row doubles when an index lands past its end, so no row is
    longer than twice the largest prefix or vpage entered (vpages are
    dense from 0). The pmaps' tables sit in one array indexed by pmap id.

    A PTE is one int and its rows are [int array]s: [-1] is no entry,
    and any other value packs, low bits first, the protection (2 bits),
    the frame's node plus one (10 bits: 0 is the global frame, so nodes
    0 to 1022 fit), the frame's id in its pool (25 bits, below 2{^25};
    0 for the global frame) and the logical page (25 bits, below
    2{^25}). So installing a PTE allocates nothing, a store needs no
    write barrier, a replica build copies int rows, a protection change
    rewrites two bits and the [stale-pte] fault rewrites the lpage
    field. A field that does not fit raises [Invalid_argument]. Only the
    audit and the tests read a PTE's fields, through the decoded {!pte}
    view.

    A table's pages are visited root first, by level and then by prefix,
    when a replica is built, dropped or evacuated. So when a pool runs
    dry partway through a replica build, the pages nearest the root keep
    the local frames and the rest fall back to the shared level. A
    pmap's replicas sit in a {!Hash_order}: the order of a hash table
    keyed by node, which fixes the order of propagation charges and
    [Pt_shootdown] events. Replica builds add to it and drops remove
    from it; propagation reads it with a [for] loop. A walk finds its
    CPU's replica through an array indexed by node.

    The module is cost + bookkeeping + invariant state only: the
    functional truth of translation stays in {!Mmu}'s forward table, so
    attaching a [Pt.t] changes timings and counters but never behaviour,
    and not attaching one ([--pt-mode none]) reproduces the free-walk
    simulator byte for byte. *)

type mode =
  | Off  (** no materialised tables: translation is free, as before *)
  | Shared  (** one master table per pmap; remote CPUs walk it remotely *)
  | Replicated of int option
      (** per-node replica tables; [None] = eager on every online node,
          [Some n] = built on demand by the first local walk, at most [n]
          replicas per pmap *)

val mode_of_string : string -> (mode, string) result
(** ["none"], ["shared"], ["replicated"], ["replicated:N"] (N >= 1). *)

val mode_to_string : mode -> string

type pte = {
  pte_lpage : int;
  pte_frame : (int * int) option;
      (** the local frame as [(node, id)]; [None] = the global frame *)
  pte_prot : Prot.t;
}
(** One stored PTE, decoded: the view {!master_pte}, {!master_ptes} and
    {!replica_ptes} return for the invariant sweep and the tests. *)

type t

val create :
  ?obs:Numa_obs.Hub.t ->
  config:Config.t ->
  frames:Frame_table.t ->
  sink:Cost_sink.t ->
  mode:mode ->
  unit ->
  t
(** Walk and shootdown charges queue in [sink] under the [Pt_walk] /
    [Pt_shootdown] profiler categories (replica-build copies under
    [Page_copy]), so the drain discipline keeps conservation exact. *)

val mode : t -> mode
val levels : t -> int
(** Radix depth (3: root, directory, leaf; 8 index bits per level). *)

(** {1 Hooks from the MMU} — called by {!Mmu} when a [Pt.t] is attached. *)

val enter_ids :
  t -> pmap:int -> cpu:int -> vpage:int -> lpage:int -> frame_node:int -> frame_id:int ->
  prot:Prot.t -> unit
(** Install the PTE in the master table (allocating path pages
    first-touch from [cpu]'s pool, falling back to the shared level when
    the pool refuses) and propagate it into every replica. The physical
    target is the frame [frame_id] of [frame_node]'s pool, or the global
    frame when [frame_node] is negative ([frame_id] is then ignored).
    Takes its target as ints, so it allocates nothing. Raises
    [Invalid_argument] on a negative pmap or a field that does not fit a
    PTE (see the layout above). *)

val enter :
  t -> pmap:int -> cpu:int -> vpage:int -> lpage:int ->
  frame:Frame_table.local_frame option -> prot:Prot.t -> unit
(** {!enter_ids} for a caller that holds the frame record: [None] is the
    global frame. *)

val remove : t -> pmap:int -> cpu:int -> vpage:int -> lpage:int -> unit
(** Clear the PTE everywhere; each replica invalidation is a shootdown
    (remote store + IPI cost, [Pt_shootdown] event). *)

val update_prot :
  t -> pmap:int -> cpu:int -> vpage:int -> lpage:int -> prot:Prot.t -> unit

val walk : t -> pmap:int -> cpu:int -> vpage:int -> lpage:int -> unit
(** Price one software-TLB miss: read each existing level of the chosen
    table (the node-local replica when one exists or on-demand
    replication builds one, the master otherwise), charging the matrix
    fetch latency per level. [lpage < 0] when the walk finds no PTE (the
    fault path). A negative pmap has no tables, so its walk reads, charges
    and counts nothing. *)

(** {1 Degradation and the daemon} *)

val node_offline : t -> node:int -> unit
(** Evacuate the dying node: drop its replica tables (freeing their
    frames) and re-home master table pages living there onto the nearest
    online pool (or the shared level). Call after the pool is marked
    offline so re-allocation cannot land back on it. *)

val daemon_sweep : t -> by_cpu:int -> int
(** Eager mode only: build any replica missing on an online node (a node
    that came back, or whose build was deferred); returns how many were
    built. On-demand and shared modes do nothing. *)

val corrupt_replica : t -> lpage:int -> (int * int) option
(** Deliberately make one replica PTE stale (deterministically: lowest
    pmap, then lowest node, holding a PTE for [lpage]); returns the
    [(pmap, node)] hit, or [None] when no replica maps the page. Fault
    injection only — this is the bug numaPTE-style management must not
    create, planted so the invariant sweep can prove it would catch it. *)

(** {1 Introspection} — for the invariant sweep and the report. These,
    {!remove} and {!update_prot} read a negative pmap as one without
    tables. *)

val pmaps : t -> int list
(** Pmaps with materialised tables, sorted. *)

val master_pte : t -> pmap:int -> cpu:int -> vpage:int -> pte option

val replica_nodes : t -> pmap:int -> int list
(** Nodes holding a replica of the pmap's table, sorted. *)

val replica_ptes : t -> pmap:int -> node:int -> ((int * int) * pte) list
(** [((cpu, vpage), pte)] for every PTE in the replica, unordered. *)

val master_ptes : t -> pmap:int -> ((int * int) * pte) list

val table_frames : t -> (int * Frame_table.local_frame) list
(** Every frame backing a page-table page, master and replica, paired
    with the node whose pool it came from; unordered. *)

type stats = {
  walks : int;
  walk_levels : int;  (** total levels read over all walks *)
  walk_ns : float;
  pte_updates : int;  (** replica PTE installs (silent propagation) *)
  pte_shootdowns : int;  (** replica PTE invalidations / retargets *)
  shootdown_ns : float;
  replicas_built : int;
  replicas_dropped : int;
  pt_frames : int array;  (** per-node frames currently backing tables *)
  global_pt_pages : int;  (** path pages that fell back to the shared level *)
}

val stats : t -> stats
