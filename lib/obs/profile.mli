(** Simulated-time profiler: exact attribution of virtual nanoseconds.

    The paper's whole argument is about where simulated time goes — local
    vs remote vs global references, page moves, pmap overhead — but the
    run report only gives aggregate γ and counters. This module is the
    missing lens: every nanosecond the engine puts on a CPU clock is
    charged to exactly one category (reference class by (src, dst) node
    pair, per-link bus queueing, kernel work split by cause and context,
    lock and barrier spinning, system-call service, dispatch, idle), with
    per-entity attribution on the side (hot pages, hot locks, hot links,
    hot threads).

    The invariant that makes the numbers trustworthy is {e conservation}:
    for each CPU, the attributed total equals the engine's CPU clock, and
    after {!finalize} the grand total equals [n_cpus × elapsed]. The
    charging layers uphold it by charging at the moment the engine
    advances a clock, never earlier: kernel charges queue in
    {!Numa_machine.Cost_sink} and are profiled only when drained into a
    clock. {!check_conservation} asserts the invariant; tests run it over
    every Table 4 application.

    All data is virtual-time and therefore deterministic: profiles are
    safe to embed in golden reports and measurement JSON. *)

type kernel_cat =
  | Fault_trap  (** trap + fault bookkeeping on fault entry *)
  | Pmap_action  (** placement-protocol request overhead *)
  | Page_copy  (** page copies and syncs between memories *)
  | Zero_fill
  | Tlb_shootdown  (** software-TLB invalidations *)
  | Disk_read  (** page-ins from the modeled backing store *)
  | Disk_write  (** writebacks to the modeled backing store *)
  | Pt_walk  (** multi-level page-table walks on software-TLB misses *)
  | Pt_shootdown  (** replica page-table PTE updates / shootdowns *)

val kernel_cat_name : kernel_cat -> string

type context =
  | App  (** charged while serving the workload's own accesses *)
  | Daemon  (** charged from the reconsideration daemon's tick *)
  | Degradation  (** charged while applying injected faults *)

val context_name : context -> string

type t

val create : n_cpus:int -> n_nodes:int -> n_pages:int -> t

val set_clock : t -> (unit -> float) -> unit
(** Point the profiler at the engine's virtual clock (used to timestamp
    lock hold intervals). *)

val context : t -> context
val set_context : t -> context -> unit
(** The system layer brackets daemon ticks and fault application with
    [set_context]; kernel charges record the context current at charge
    time. *)

(** {1 Charging} — each call attributes [ns] to one category and to the
    charged CPU's busy total. Callers only invoke these when a profiler
    is attached, so the disabled path costs one [option] test. *)

val charge_ref :
  t -> cpu:int -> dst:int -> loc:Event.loc -> lpage:int -> tid:int -> float -> unit
(** Reference cost from the CPU's node to [dst], classified by the
    paper's LOCAL/GLOBAL/replica buckets; also feeds the page, thread
    and (off-node) link attributions. *)

val charge_bus : t -> cpu:int -> dst:int -> lpage:int -> float -> unit
(** Interconnect queueing delay on the [cpu -> dst] link. *)

val charge_kernel : t -> cpu:int -> ctx:context -> cat:kernel_cat -> lpage:int -> float -> unit
(** Kernel (system) time by cause and context; [lpage < 0] means no
    page attribution. Called by {!Numa_machine.Cost_sink} at drain time. *)

val charge_compute : t -> cpu:int -> tid:int -> float -> unit
val charge_lock_spin : t -> cpu:int -> tid:int -> lock_id:int -> float -> unit
(** Poll time beyond the lock-word reference itself (the reference is
    already charged by {!charge_ref}). *)

val charge_barrier_spin : t -> cpu:int -> tid:int -> float -> unit
val charge_syscall : t -> cpu:int -> float -> unit
val charge_dispatch : t -> cpu:int -> float -> unit
(** Thread dispatch / migration cost on the target CPU. *)

val charge_idle : t -> cpu:int -> float -> unit
(** A gap where the CPU's clock jumped forward without doing work
    (thread parked on a lagging CPU, syscall return, migration). *)

val note_request : t -> service_ns:float -> queue_ns:float -> unit
(** Side attribution (like the hot-page totals): record one served
    request's latency split into queueing and service. Does not charge any
    CPU — the service time is already on the clocks via the ops that made
    it up — so conservation is untouched. *)

val note_timeout : t -> unit
(** One attempt-level deadline fire (same side-attribution rules as
    {!note_request}). *)

val note_shed : t -> unit
(** One request rejected by an open circuit breaker. *)

val note_backoff : t -> float -> unit
(** Virtual time a request spent parked in retry backoff. *)

val note_hedge : t -> float -> unit
(** Service time spent inside hedged second attempts. *)

val lock_acquired : t -> lock_id:int -> unit
(** Start of a hold interval, stamped from the profiler clock. *)

val lock_released : t -> lock_id:int -> unit

(** {1 Conservation} *)

val attributed_ns : t -> cpu:int -> float
(** Busy + idle: must equal the engine's clock for that CPU. *)

val finalize : t -> elapsed_ns:float -> unit
(** Add each CPU's tail idle (from its last event to the run's end) so
    the grand total is [n_cpus × elapsed]. Idempotent. *)

val check_conservation :
  t -> clocks:float array -> elapsed_ns:float -> (unit, string) result
(** Verify per-CPU attribution against the engine clocks and, when
    finalized, the grand total against [n_cpus × elapsed]; the error
    names the first CPU that leaks. *)

(** {1 Export} *)

type tree_node = {
  label : string;
  ns : float;
  children : (string * float) list;  (** sorted by descending time *)
}

type serve_split = { requests : int; service_ns : float; queue_ns : float }
(** Aggregate request-latency split recorded by {!note_request}. *)

type resilience_split = {
  timeouts : int;
  sheds : int;
  backoff_ns : float;
  hedge_ns : float;
}
(** Aggregate resilience overhead recorded by {!note_timeout},
    {!note_shed}, {!note_backoff} and {!note_hedge}. *)

type snapshot = {
  elapsed_ns : float;
  n_cpus : int;
  attributed_ns_total : float;
  busy_ns_total : float;
  idle_ns_total : float;
  categories : tree_node list;
  hot_pages : (int * float) list;  (** (lpage, ns), descending *)
  hot_locks : (int * float * float * int) list;
      (** (lock id, spin ns, hold ns, acquisitions), by spin *)
  hot_links : (int * int * float) list;  (** (src, dst, ns) off-node traffic *)
  hot_threads : (int * float) list;
  serve : serve_split option;
      (** [None] unless requests were served, so batch-app profiles render
          (text, folded and JSON) byte-identically to earlier releases *)
  resilience : resilience_split option;
      (** [None] unless some resilience overhead was recorded, with the
          same byte-identity guarantee for runs without it *)
}

val snapshot : ?top:int -> t -> snapshot
(** Immutable copy for rendering; [top] (default 10) bounds each hot
    list. *)

val render : snapshot -> string
(** [perf report]-style text breakdown. *)

val folded : snapshot -> string
(** Folded-stack lines ([a;b value] per line) for flamegraph tools. *)

val snapshot_to_json : snapshot -> Json.t
