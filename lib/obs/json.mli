(** A minimal hand-rolled JSON emitter and parser (no external
    dependencies).

    Every machine-readable artefact of the repository — Chrome trace
    exports, report dumps, sweep artifacts — goes through this module, so
    output stays valid JSON (string escaping, no [inf]/[nan] literals)
    without pulling in a JSON library. Reports and sweep artifacts are
    {!t} trees printed by {!to_buffer}; the Chrome trace builds no tree
    and writes each event with {!add_int}, {!add_float} and {!add_string},
    the writers {!to_buffer} prints every value with. {!parse} reads
    documents back, and {!member} finds a key where it lives;
    {!check_structure} is a cheaper bracket and string balance check that
    builds no tree. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** How {!to_buffer} prints a [Float]: [null] when not finite, the
    [Printf "%.1f"] text for integral values below [1e15] in magnitude
    ([-0.0] included), and the [Printf "%.12g"] text otherwise.

    The [%.12g] text of a value with [1 <= |f| < 1e12] is computed here,
    without printf: the 12 digits are [|f| * 10^(11-x)] rounded to an
    integer, where [10^x <= |f| < 10^(x+1)], and [Float.fma] gives the
    product's exact rounding error, so they round as printf's do, ties to
    even. Trailing zeros of the fraction are dropped, as [%g] drops them.
    A value whose digits round up into a 13th, and every value outside
    that range, goes through printf's C primitive. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int]'s text, [min_int] included, with no C call and
    no intermediate string. *)

val add_float : Buffer.t -> float -> unit
(** Append {!float_repr}'s text. An integral value below [1e15] in
    magnitude, and any value with [1 <= |f| < 1e12] whose digits do not
    round into a 13th, is written digit by digit with no C call and no
    allocation. *)

val add_string : Buffer.t -> string -> unit
(** Append the string as a JSON string literal: quoted, with quotes,
    backslashes and control characters escaped. A string that needs no
    escape is copied whole. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the document, every [Int], [Float] and [String] (object keys
    included) through the three writers above. *)

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
