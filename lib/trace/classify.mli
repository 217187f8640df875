(** Per-page sharing classification from a reference trace.

    Applies the paper's definitions (section 4.2): a page is {e writably
    shared} if at least one processor writes it and more than one reads or
    writes it; pages used by one processor are private; pages written by
    nobody (after initialisation, by at most one) are read-shared. *)

type page_class = Class_private | Class_read_shared | Class_write_shared

type summary = {
  vpage : int;
  region : string;
  reads : int;  (** individual references, not batches *)
  writes : int;
  readers : int list;  (** CPUs, sorted *)
  writers : int list;
  cls : page_class;
}

val class_to_string : page_class -> string

val classify : Trace_buffer.t -> summary list
(** One summary per touched page, in page order. *)

val by_region : summary list -> (string * summary list) list
(** Group page summaries by region name, region order by first page. *)
