(** A single memory-reference kind: a 32-bit fetch or a 32-bit store.

    The ACE timing model prices these differently for each memory level
    (local / global / remote), and the NUMA consistency protocol reacts
    differently to reads and writes, so the distinction runs through the
    whole stack. *)

type t = Load | Store

val pp : Format.formatter -> t -> unit

val to_string : t -> string
