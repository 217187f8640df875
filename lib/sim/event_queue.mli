(** The engine's ready queue: an array-backed binary min-heap on
    (virtual time, sequence number) keys carrying a thread id.

    Monomorphic on purpose — this is the simulator's hottest structure:
    the comparison is inlined (no closure call per sift step), keys live
    in unboxed float/int arrays rather than tuples, and the empty checks
    ({!min_time}, {!min_tid}, {!pop_min}) allocate nothing. Ties on time
    pop in insertion (sequence) order, which the engine relies on for
    deterministic scheduling.

    The engine steps the heap without popping: the running thread's entry
    stays at the root for its whole turn ({!min_tid}), the turn compares
    against the earliest entry below it ({!next_time}), and it ends by
    replacing the root with the thread's next event ({!replace_min}, one
    sift-down) or removing it ({!drop_min}). Because every (time, seq) key
    is unique, the entries come out in the same order as with a pop
    followed by an {!add}. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val add : t -> time:float -> seq:int -> tid:int -> unit

val min_time : t -> float
(** Earliest queued time, or [infinity] when empty. *)

val min_tid : t -> int
(** The earliest entry's tid, left in place, or [-1] when empty. *)

val next_time : t -> float
(** Earliest time among the entries other than the earliest one, or
    [infinity] when there are fewer than two. *)

val replace_min : t -> time:float -> seq:int -> tid:int -> unit
(** Replace the earliest entry with a new one: {!drop_min} then {!add} in
    one sift-down. [Invalid_argument] when empty. *)

val drop_min : t -> unit
(** Remove the earliest entry; no-op when empty. *)

val pop_min : t -> int
(** Remove and return the earliest entry's tid, or [-1] when empty. *)

val clear : t -> unit
