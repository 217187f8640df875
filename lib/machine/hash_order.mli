(** The values of a hash table kept only for its iteration order.

    A table made by [Hashtbl.create n] with [n <= 16] starts with 16
    buckets. When its keys are added distinct, its fold and iter orders
    depend only on each key's [Hashtbl.hash], the order the keys came in
    and the number of buckets. This array reproduces those orders exactly
    without the table: each value is stored with its key's hash, sorted
    by bucket ([hash land (width - 1)]) descending and, within a bucket,
    oldest first. The width doubles when an add makes the length exceed
    twice the width, as [Hashtbl]'s resize does, and a stable re-sort
    by the new bucket keeps each old bucket's order, as that resize
    does. Removal never shrinks it; {!reset} sets it back to 16.

    {!Mmu}'s reverse buckets, the NUMA manager's copy order and {!Pt}'s
    replicas keep their orders here; those orders fix the order of
    shootdown events and charges, which the goldens pin.

    Slots past {!length} may still hold values that were removed, until
    a later add overwrites them. *)

type 'a t

val create : unit -> 'a t
(** An empty order at width 16, as [Hashtbl.create n] for [n <= 16]. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** [get t i] is the [i]th value of {!to_list}. Reading [i] from
    [length t - 1] down to 0 visits the values in [Hashtbl.iter]'s order,
    which is also [Hashtbl.to_seq]'s. Raises [Invalid_argument] when [i]
    is outside [0 .. length t - 1]. *)

val to_list : 'a t -> 'a list
(** The values as [Hashtbl.fold (fun _ v acc -> v :: acc)] lists them. *)

val add : 'a t -> hash:int -> 'a -> unit
(** [add t ~hash v] adds [v] as [Hashtbl.add] or [Hashtbl.replace] adds a
    binding of an absent key whose [Hashtbl.hash] is [hash]. *)

val remove : 'a t -> same:('a -> 'a -> bool) -> 'a -> unit
(** [remove t ~same v] removes the first value [x] of {!to_list} for
    which [same v x] holds, as [Hashtbl.remove] removes a present key.
    When none does, it does nothing. *)

val reset : 'a t -> unit
(** Empty [t] and set its width back to 16, as [Hashtbl.reset] does. *)
