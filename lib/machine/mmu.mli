(** Per-processor address-translation state (the Rosetta model).

    A mapping binds (pmap, cpu, virtual page) to a physical page — either a
    local frame on the referencing CPU's node or a global frame — with a
    protection. Mappings are per-CPU, as on the ACE, because the NUMA
    manager must know which processors can reach which pages; the paper
    added a target-processor argument to [pmap_enter] for exactly this
    reason.

    A reverse index from logical page to the mappings that reach it backs
    [pmap_remove_all]-style protocol actions.

    {e Layout.} The forward table is rows indexed pmap, then cpu, then
    vpage ({!Rows}), so a lookup neither hashes nor allocates a key. The
    reverse index is an array indexed by logical page. Each page keeps
    its mappings in a {!Hash_order}: the fold order of a hash table keyed
    by (pmap, cpu, vpage), which is the order {!entries_of_lpage} lists
    them in and so the order of protocol shootdowns. A mapping's key is
    hashed once, when it is entered, into a scratch record, and its
    removal compares keys without hashing. A page whose last mapping
    goes keeps its order, reset to the width a new table has, so that
    order is the same as if the page had never been mapped. *)

type phys = Frame of Frame_table.local_frame | Global_frame of int

type entry = private {
  pmap : int;
  cpu : int;
  vpage : int;
  lpage : int;
  mutable prot : Prot.t;
  mutable phys : phys;
}

type t

val create : ?obs:Numa_obs.Hub.t -> Config.t -> t
(** [obs] (default: a fresh hub with no sinks) receives a [Tlb_shootdown]
    event each time dropping a mapping invalidates a live software-TLB
    entry. *)

val attach_pt : t -> Pt.t -> unit
(** Materialise the page tables: from then on every mapping install /
    retarget / protection change / removal is mirrored into the {!Pt}
    layer (master table plus replica shootdowns) and every software-TLB
    miss in {!translate} pays a charged multi-level walk. Without it (the
    default) translation stays free, exactly as before. *)

val pt : t -> Pt.t option

val enter :
  t -> pmap:int -> cpu:int -> vpage:int -> lpage:int -> prot:Prot.t -> phys:phys -> unit
(** Install or replace a mapping. Replacement shoots down any cached
    translation of the old mapping. Raises [Invalid_argument] on a cpu
    outside the machine or a negative pmap, vpage or lpage. *)

val lookup : t -> pmap:int -> cpu:int -> vpage:int -> entry option
(** [None] for any index no mapping has, negative ones included. *)

val translate : t -> pmap:int -> cpu:int -> vpage:int -> entry option
(** Like {!lookup} but through the referencing CPU's software TLB
    ({!Tlb}): a hit resolves without touching the forward table, a miss
    reads it by index and fills the cache. Counts one TLB hit or miss; use
    {!lookup} from paths (protocol actions, introspection) that should not
    perturb the counters. *)

val tlb_hits : t -> int
val tlb_misses : t -> int
val tlb_shootdowns : t -> int
(** Software-TLB counters summed over all CPUs. *)

val tlb_stats : t -> cpu:int -> int * int * int
(** One CPU's [(hits, misses, shootdowns)], for per-CPU hit-rate
    reporting. *)

val set_prot : t -> entry -> Prot.t -> unit

val remove : t -> pmap:int -> cpu:int -> vpage:int -> unit
(** Drop one mapping if present. *)

val remove_entry : t -> entry -> unit
(** Drop the mapping [e] if it is still installed, that is if its forward
    slot holds [e] itself. A stale entry, one already removed or replaced,
    changes nothing: no page-table removal, no shootdown and no event,
    even when a newer mapping now sits at its (pmap, cpu, vpage). *)

val entries_of_lpage : t -> lpage:int -> entry list
(** Every mapping, on any processor and in any pmap, that reaches the
    logical page. *)

val n_entries_of_lpage : t -> lpage:int -> int
(** How many mappings {!entries_of_lpage} would list. *)

val entry_of_lpage : t -> lpage:int -> int -> entry
(** [entry_of_lpage t ~lpage i] is the [i]th mapping {!entries_of_lpage}
    would list, read in place. Removing it moves each later one down a
    place, in the same order, so a loop that unmaps a page walks it by
    index with no list: it stays at [i] after a removal and steps past a
    mapping it keeps. Raises [Invalid_argument] when [i] is outside
    [0 .. n_entries_of_lpage t ~lpage - 1]. *)

val iter_mapped_lpages : t -> (int -> unit) -> unit
(** [iter_mapped_lpages t f] calls [f lpage] once, in no particular
    order, on every logical page that at least one mapping reaches. It
    reads a dense list of those pages, so its cost is proportional to
    how many there are, not to the size of the reverse index. [f] must
    not change the mappings. *)

val entries_of_pmap : t -> pmap:int -> entry list
(** Every mapping of one pmap, by cpu and then vpage. It reads only that
    pmap's rows; used on the pmap-destroy path and by the page-table
    audit. *)

val remove_range : t -> pmap:int -> vpage:int -> n:int -> unit
(** Drop all mappings (on every CPU) for a virtual range of one pmap. *)

val iter_range : t -> pmap:int -> vpage:int -> n:int -> (entry -> unit) -> unit

val n_mappings : t -> int
val phys_location : cpu:int -> phys -> Location.relative
(** Where the mapped physical page sits relative to a referencing CPU. *)
