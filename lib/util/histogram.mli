(** Integer-valued histogram with unbounded keys and exact counts.

    Used for per-page move-count distributions (how many ownership transfers
    each page suffered before pinning), fault-kind breakdowns, and serving
    latencies in microseconds. Counts are kept in pages of 64 consecutive
    keys, so memory is 64 counts per touched page, not per key, and does
    not grow with the keys' size. {!add} on a key whose page is already
    present allocates nothing; the ordered queries sort the pages once per
    new page, and a new key in a known page keeps that order. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Increment the count of the given key by one. *)

val add_many : t -> int -> int -> unit
(** [add_many t key n] increments the count of [key] by [n]. [n = 0] is a
    no-op: the key is not recorded. [Invalid_argument] for [n < 0]. *)

val count : t -> int -> int
(** Count recorded for a key (0 if never seen). *)

val total : t -> int
(** Sum of all counts. *)

val keys : t -> int list
(** Keys with non-zero count, in increasing order. *)

val mean : t -> float
(** Count-weighted mean of the keys; [0.] for an empty histogram. *)

val max_key : t -> int
(** Largest recorded key; [0] for an empty histogram. *)

val percentile : t -> float -> int
(** [percentile t p] is the nearest-rank [p]-th percentile of the
    distribution ([p] in [\[0,100\]]): the smallest key whose cumulative
    count reaches [ceil (p/100 * total)]. [0] for an empty histogram;
    [Invalid_argument] for [p] outside the range or [nan]. *)

val to_sorted_list : t -> (int * int) list
(** (key, count) pairs in increasing key order. *)

val pp : Format.formatter -> t -> unit
(** One line per key: [key: count]. *)
