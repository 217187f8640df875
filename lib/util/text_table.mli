(** Plain-text table renderer for experiment output.

    All reproduced tables (Tables 1-4 of the paper, plus ablations) are
    printed through this module so they share one format: a header row, a
    rule, then data rows, columns padded to the widest cell. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** A table with the given column headers and alignments. *)

val add_row : t -> string list -> unit
(** Append a row. Raises [Invalid_argument] if the arity does not match the
    number of columns. *)

val add_rule : t -> unit
(** Append a horizontal rule (rendered as dashes) between row groups. *)

val render : t -> string
(** The finished table, newline-terminated. *)

type 'r column = string * align * ('r -> string)
(** A column spec: header, alignment, and how to print one row's cell. *)

val of_rows : columns:'r column list -> 'r list -> string
(** The rendered table with one line per row, each cell printed by its
    column's function — the whole create / [add_row] / [render] sequence
    for tables without rules. *)

(* Cell formatting helpers shared by the experiment tables. *)

val cell_f1 : float -> string
(** One decimal place, e.g. "67.4" — the paper's time format. *)

val cell_f2 : float -> string
(** Two decimal places, e.g. "0.94" — the paper's alpha/beta/gamma format. *)

val cell_pct : float -> string
(** Percentage with one decimal, e.g. "24.9%". *)

val cell_int : int -> string
