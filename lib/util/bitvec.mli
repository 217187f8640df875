(** Fixed-size mutable bit vector.

    Backs the Primes3 sieve workload and the trace analyser's page sets.
    Bits are indexed from 0; out-of-range indices raise [Invalid_argument]. *)

type t

val create : int -> t
(** [create n] is an all-zero vector of [n] bits. Raises [Invalid_argument]
    if [n < 0]. *)

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val assign : t -> int -> bool -> unit

val fill : t -> bool -> unit
(** Set every bit to the given value. *)

val popcount : t -> int
(** Number of set bits. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ors [src] into [dst]. Lengths must match. *)

val equal : t -> t -> bool
