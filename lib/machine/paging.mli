(** Per-frame paging state machine over the modeled backing store.

    Global memory is a cache over a (much slower) paging device; this
    module tracks one entry per logical page through the classic cache
    states

    {v
      Empty -> Reading -> Clean <-> Dirty -> Writeback -> Clean|Dirty
    v}

    in the style of a cache state machine with RWLock-style pending
    states: [Reading] and [Writeback] mark in-flight disk I/O, and the
    pageout path refuses to evict or double-claim such entries
    ({!evictable}). Disk latency is priced by {!Cost.disk_read_ns} /
    {!Cost.disk_write_ns} and charged through the {!Cost_sink} (category
    [Disk_read] / [Disk_write]); transitions are mirrored to the
    observability hub as [Page_in] / [Page_evicted] / [Writeback_started]
    / [Writeback_done] events.

    All transition functions raise [Invalid_argument] on an arrow that is
    not in the diagram, except {!note_free}, which must accept any state
    (freeing cancels in-flight writebacks). *)

type state = Empty | Reading | Clean | Dirty | Writeback

val state_name : state -> string

type stats = {
  page_ins : int;
  writebacks_started : int;
  writebacks_completed : int;
  writebacks_canceled : int;
  sync_writebacks : int;  (** eviction-time synchronous flushes of Dirty victims *)
  redirtied : int;  (** stores that raced an in-flight writeback *)
  clean_evictions : int;
  dirty_evictions : int;
  disk_read_ns : float;  (** total modeled page-in time *)
  disk_write_ns : float;  (** total modeled writeback time (sync + async) *)
  n_clean : int;  (** state census at snapshot time *)
  n_dirty : int;
  n_writeback : int;
}

type t

val create : ?sink:Cost_sink.t -> ?obs:Numa_obs.Hub.t -> config:Config.t -> unit -> t
(** One entry per [config.global_pages] logical page, all [Empty]. *)

val state : t -> lpage:int -> state
val n_pages : t -> int

val in_flight_lpages : t -> int list
(** Exactly the entries currently in [Writeback]; the Invariant checker
    cross-checks this against the per-entry states. *)

val iter_held : t -> (int -> unit) -> unit
(** [iter_held t f] calls [f lpage], in increasing order, on every entry
    that is not [Empty]: one pass over the entry table itself. *)

val touch : t -> lpage:int -> unit
(** Bump the entry's last-use tick (called on every fault-time entry);
    feeds the LRU-approx victim policy. *)

val last_use : t -> lpage:int -> int

val begin_read : t -> lpage:int -> unit
(** [Empty | Dirty] -> [Reading]: a page-in starts. The [Dirty] arrow
    covers the pager overwriting a zero-filled entry that was never
    entered. *)

val end_read : t -> lpage:int -> unit
(** [Reading] -> [Clean]: the page-in landed; counts and emits
    [Page_in]. The disk-read time itself is charged by the fault path,
    which knows the faulting CPU. *)

val note_zero_fill : t -> lpage:int -> unit
(** [Empty | Dirty] -> [Dirty]: a zero-filled page has no backing copy,
    so it is born dirty. *)

val mark_dirty : t -> lpage:int -> unit
(** A store landed: [Clean] -> [Dirty]; [Dirty] stays; [Writeback] sets
    the redirtied flag so completion lands back in [Dirty]; [Reading] is
    a no-op (the page-in DMA itself); [Empty] -> [Dirty] — an implicit
    dirty birth, for harnesses that drive the pmap layer without the VM
    object tier's [zero_page]. Under the full stack {!Numa_core.Invariant}
    still rejects mappings into [Empty] entries. *)

val evictable : t -> lpage:int -> bool
(** [Clean] or [Dirty]. In-flight [Reading]/[Writeback] entries must
    never be claimed. *)

val start_writeback : t -> lpage:int -> now:float -> by_cpu:int -> unit
(** [Dirty] -> [Writeback] (the only arrow in, making "Writeback implies
    previously Dirty" structural); schedules completion at [now] + the
    modeled disk-write time and charges the writing CPU. *)

val complete_due : t -> now:float -> int
(** Land every in-flight writeback whose completion time has passed:
    [Writeback] -> [Clean], or -> [Dirty] if redirtied. Returns how many
    completed. *)

val force_complete : t -> int
(** Land all in-flight writebacks regardless of deadline (memory-pressure
    fallback so a burst eviction is never wedged behind the daemon tick). *)

val start_writebacks : t -> now:float -> by_cpu:int -> max:int -> int
(** Round-robin over the entry table (persistent cursor) starting up to
    [max] async writebacks on [Dirty] entries; returns the number
    started. *)

val sync_writeback : t -> lpage:int -> by_cpu:int -> unit
(** [Dirty] -> [Clean] paying the full disk write synchronously: the
    eviction path's flush. Only Dirty victims pay this. *)

val note_evicted : t -> lpage:int -> dirty:bool -> unit
(** Count and emit a [Page_evicted]; called by the pageout daemon after
    the victim's content is extracted. *)

val note_free : t -> lpage:int -> unit
(** Any state -> [Empty]. Cancels an in-flight writeback (counted as
    canceled). Never raises. *)

val count : t -> state -> int

val active : t -> bool
(** True iff any paging activity (page-ins, writebacks, evictions)
    happened — the gate for the optional report section. Deliberately
    ignores the state census: zero-fills dirty entries even on clean
    runs. *)

val stats : t -> stats
