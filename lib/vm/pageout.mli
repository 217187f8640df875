(** The pageout daemon.

    Mach's logical page pool is fixed at boot (section 2.1), so a workload
    whose footprint exceeds it needs page reclamation. This daemon evicts
    resident object pages — saving their contents, dropping their mappings
    and freeing their logical pages — whenever free pages fall below the
    low-water mark, until the high-water mark is restored.

    With a {!Numa_machine.Paging} state machine attached, eviction is
    dirty-aware: Clean victims drop for free, Dirty victims pay a
    synchronous disk write first, and entries with in-flight disk I/O
    (Reading/Writeback) are never claimed. {!daemon_tick} additionally
    lands due async writebacks and pre-cleans Dirty pages while free pages
    run low, so forced evictions find Clean victims.

    Page-out and page-in go through the pmap layer's
    [extract_content]/[free_page]/[install_page] operations, so an evicted
    page's NUMA placement history — including a pinning decision — is
    forgotten, exactly the footnote-4 behaviour. *)

open Numa_machine

(** Victim selection. [Clock] is round-robin over the registered objects'
    resident pages — the ACE has no page-reference bits, and FIFO-like
    rotation is what such systems actually shipped. [Lru_approx] evicts
    the page with the oldest fault-time use tick (the Babaoglu-Joy trick
    the paper cites: faults are the only use signal without reference
    bits). *)
type victim = Clock | Lru_approx

val victim_name : victim -> string

val victim_of_string : string -> victim option
(** ["clock"], ["lru"] (also accepted: ["lru-approx"]). *)

type t

val create :
  pool:Lpage_pool.t ->
  ops:Pmap_intf.ops ->
  ?low_water:int ->
  ?high_water:int ->
  ?victim:victim ->
  ?paging:Paging.t ->
  unit ->
  t
(** Defaults: low-water 2, high-water 8 (small, suited to the simulated
    pools; real systems scale these with memory size), [Clock] victims,
    no paging machine (evictions then treat every page as clean).
    Requires [0 < low_water <= high_water]. *)

val register : t -> Vm_object.t -> unit
(** Make an object's pages eligible for eviction. *)

val evict_one : ?avoid:int -> ?by_cpu:int -> t -> bool
(** Evict a single page chosen by the victim policy; false when nothing
    is evictable. Total even on degenerate registries (all objects
    zero-sized). [by_cpu] (default 0) is charged for any synchronous
    writeback. *)

val ensure_free : ?avoid:int -> ?by_cpu:int -> t -> needed:int -> bool
(** Evict until at least [needed] logical pages are free, plus a
    low-water cushion — but capped there: the burst never sweeps on to a
    distant high-water mark (that evicted whole working sets in one
    fault); {!tick} resumes the climb in daemon context. Returns false if
    not enough evictable pages exist. [avoid] names a logical page the
    sweep must never evict — the page an in-flight fault or frame-reclaim
    pass is working on. *)

val tick : ?by_cpu:int -> t -> int
(** Daemon heartbeat: evict down to the high-water mark if below the
    low-water mark. Returns pages evicted. *)

val daemon_tick : t -> now:float -> by_cpu:int -> int
(** The full daemon beat, called from the System's reconsideration tick:
    land async writebacks due by [now], start pre-cleaning writebacks if
    free pages are below high water, then {!tick}. Returns pages
    evicted. *)

val evictions : t -> int
(** Total pages evicted over the daemon's lifetime. *)
