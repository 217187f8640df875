(** Per-processor address-translation state (the Rosetta model).

    A mapping binds (pmap, cpu, virtual page) to a physical page — either a
    local frame on the referencing CPU's node or a global frame — with a
    protection. Mappings are per-CPU, as on the ACE, because the NUMA
    manager must know which processors can reach which pages; the paper
    added a target-processor argument to [pmap_enter] for exactly this
    reason.

    A reverse index from logical page to the mappings that reach it backs
    [pmap_remove_all]-style protocol actions. *)

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
    translation of the old mapping. *)

val lookup : t -> pmap:int -> cpu:int -> vpage:int -> entry option

val translate : t -> pmap:int -> cpu:int -> vpage:int -> entry option
(** Like {!lookup} but through the referencing CPU's software TLB
    ({!Tlb}): a hit resolves in O(1) without touching the forward hash
    table, a miss fills the cache. Counts one TLB hit or miss; use
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

val entries_of_lpage : t -> lpage:int -> entry list
(** Every mapping, on any processor and in any pmap, that reaches the
    logical page. *)

val iter_mapped_lpages : t -> (int -> unit) -> unit
(** [iter_mapped_lpages t f] calls [f lpage] once, in no particular
    order, on every logical page that at least one mapping reaches: one
    pass over the reverse index's buckets, which exist exactly while
    they are non-empty. *)

val entries_of_pmap : t -> pmap:int -> entry list
(** Every mapping of one pmap. Linear in the total number of mappings;
    used only on the rare pmap-destroy path. *)

val remove_range : t -> pmap:int -> vpage:int -> n:int -> unit
(** Drop all mappings (on every CPU) for a virtual range of one pmap. *)

val iter_range : t -> pmap:int -> vpage:int -> n:int -> (entry -> unit) -> unit

val n_mappings : t -> int
val phys_location : cpu:int -> phys -> Location.relative
(** Where the mapped physical page sits relative to a referencing CPU. *)
