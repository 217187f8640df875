(** The Mach logical page pool.

    Fixed-size, as in the paper's Mach (section 2.1 notes the pool cannot
    grow at run time, which bounds the replication memory). Each logical
    page corresponds 1:1 to a page of ACE global memory, so the pool size
    equals [Config.global_pages].

    Freeing goes through the pmap layer's [free_page]/[free_page_sync]
    pair so the NUMA manager can lazily tear down cache state before the
    frame is reused. *)

type t

val create : Numa_machine.Config.t -> ops:Pmap_intf.ops -> t

val size : t -> int
val n_free : t -> int
val n_allocated : t -> int

val alloc : t -> int
(** Take a logical page, completing any pending lazy cleanup for the frame
    first. [-1] when the pool is exhausted. The pool is a stack: it hands
    out the page freed last, and page 0 first when nothing was freed. *)

val free : t -> int -> unit
(** Release a logical page; cleanup is started lazily via the pmap layer.
    Raises [Invalid_argument] on double free or out-of-range page. *)

val is_allocated : t -> int -> bool
