(** Rows indexed directly, for tables that must find an entry without
    hashing or allocating a key: {!Mmu}'s forward and reverse maps and
    {!Pt}'s radix pages and PTEs. A row doubles when an index lands past
    its end, so no row is longer than twice the largest index stored in
    it, and an index outside the rows reads as absent. *)

val fit : 'a array -> int -> 'a -> 'a array
(** [fit row i pad] is [row] itself when [i] indexes it, otherwise a copy
    at least twice as long whose new slots hold [pad]. [i] must not be
    negative. *)

val get : 'a option array array -> int -> int -> 'a option
(** [get rows i j] is slot [j] of row [i]: [None] when either index lies
    outside the rows, negative ones included. *)

val set : 'a option array array -> int -> int -> 'a option -> unit
(** [set rows i j v] stores [v] in slot [j] of row [i], growing that row
    with {!fit} first when [j] lies past its end. [i] must index a row. *)
