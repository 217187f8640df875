(** A minimal hand-rolled JSON emitter (no external dependencies).

    Every machine-readable artefact of the repository — Chrome trace
    exports, report dumps, bench records — goes through this module, so
    output stays valid JSON (string escaping, no [inf]/[nan] literals)
    without pulling in a JSON library.

    The "validation" half is deliberately parser-less: {!check_structure}
    only verifies bracket/string balance and {!has_key} only looks for a
    quoted key followed by a colon. That is enough for the structural
    round-trip tests without committing to a full parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control characters). *)

val float_repr : float -> string
(** How {!to_buffer} prints a [Float]: [null] when not finite, the
    [Printf "%.1f"] text for integral values below [1e15] in magnitude
    ([-0.0] included), and the [Printf "%.12g"] text otherwise. *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val save : t -> string -> unit
(** Write the document to a file, with a trailing newline. *)

val parse : string -> (t, string) result
(** Full recursive-descent parser for the documents this module emits
    (and standard JSON generally): objects, arrays, strings with escapes,
    numbers ([Int] when the literal is integral, [Float] otherwise),
    [true]/[false]/[null]. Errors carry a byte offset. The observatory
    reads [BENCHMARK.json] and its committed digests through it. *)

val load : string -> (t, string) result
(** Read and {!parse} a file; I/O failures become [Error]. *)

val member : t -> string -> t option
(** Field lookup on an [Obj]; [None] on missing key or non-object. *)

val to_float : t -> float option
(** Numeric value of an [Int] or [Float] node. *)

val check_structure : string -> (unit, string) result
(** Quote-aware bracket balancing over a serialized document: every
    [{]/[[] closes with the matching [}]/[]], strings terminate, document
    non-empty. Does not validate commas, colons or literals. *)

val has_key : string -> key:string -> bool
(** [has_key s ~key] is true when ["key"] appears in [s] as a quoted
    string immediately followed (modulo whitespace) by a colon. *)

val required_keys : string -> keys:string list -> (unit, string) result
(** First key from [keys] failing {!has_key}, as an error. *)
