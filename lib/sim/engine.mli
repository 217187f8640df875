(** The discrete-event execution engine.

    Simulated threads are OCaml functions that perform {!Api} effects; the
    engine resumes them one bounded chunk of work at a time, in strict
    virtual-time order across all CPUs. Each CPU has its own clock; a
    thread's chunk runs at [max(event time, cpu clock)], which serialises
    threads sharing a CPU and makes chunk size the effective time-slicing
    granularity.

    Accounting follows Unix [time(1)], the paper's instrument: memory
    references, computation and spinning accrue {e user} time on the
    running CPU; fault handling, protocol actions and system-call service
    accrue {e system} time. T_numa and friends are sums of per-CPU user
    times (section 3.1).

    Two scheduler modes reproduce section 4.7: [Affinity] binds each thread
    to a CPU at spawn (the paper's modified scheduler); [Single_queue]
    models original Mach, re-dispatching a thread to the least-advanced CPU
    at every chunk boundary, destroying locality.

    A scheduling turn leaves the running thread's event at the root of the
    {!Event_queue} instead of popping it. The turn keeps resuming the
    thread inline while its next op starts no later than
    {!Event_queue.next_time}, the earliest event below the root. It ends
    by replacing the root with the thread's next event
    ({!Event_queue.replace_min}, one sift-down) or dropping it when the
    thread finishes. Every (time, seq) key is unique, so events run in the
    order a pop-then-push cycle gives.

    A turn allocates nothing of its own. The thread record holds its
    current {!Op.t} and the op's counters, one all-float record holds the
    chunk's outcome, and memory costs arrive in {!Memory_iface.cost}. The
    effect handler is built once per engine and hands every suspension
    the same preallocated closure, so a [perform] allocates the op, its
    {!Api.Sim_op} wrapper, the runtime's continuation and the two-word
    [Suspended] box that carries it. A float passed to or returned from
    a function that is not inlined is still boxed: the time given to
    {!Event_queue.replace_min} and the one {!Event_queue.next_time}
    returns. The build inlines across modules (it does not use dune's
    dev-profile [-opaque]), but neither heap call is inlined. *)

type scheduler_mode = Affinity | Single_queue

type config = {
  n_cpus : int;
  chunk_refs : int;  (** max references per chunk (interleaving granularity) *)
  compute_slice_ns : float;  (** max computation per chunk *)
  spin_poll_ns : float;  (** spin-lock / barrier poll interval *)
  unix_master : bool;  (** serialise system calls on CPU 0 (section 4.6) *)
  max_events : int;  (** safety valve against runaway simulations *)
}

val default_config : n_cpus:int -> config

type t

exception Deadlock of string
(** Raised when no thread can make progress (e.g. a lock was never
    released). *)

val create : ?obs:Numa_obs.Hub.t -> config -> memory:Memory_iface.t -> scheduler:scheduler_mode -> t
(** [obs] (default: a fresh, sink-less hub) receives scheduler dispatch,
    lock and system-call events. The engine points the hub's clock at its
    own virtual-time counter, so all events — including those emitted by
    lower layers sharing the hub — are stamped in simulated nanoseconds. *)

val obs : t -> Numa_obs.Hub.t

val set_profile : t -> Numa_obs.Profile.t -> unit
(** Attach a simulated-time profiler and point its clock at the engine's
    virtual counter. From then on every nanosecond the engine puts on a
    CPU clock is attributed: references and kernel charges through the
    memory layer, compute slices, spin padding, syscall service, dispatch
    and idle gaps directly here. Callers must also attach the profiler to
    the memory layer's {!Numa_machine.Cost_sink} (the {!Numa_system}
    layer does both). *)

val profile : t -> Numa_obs.Profile.t option

val set_turn_hook : t -> (now:float -> unit) -> unit
(** Install a callback invoked at the start of every scheduling turn with
    the (monotone) virtual clock — the fault injector's drive shaft. The
    hook runs before the turn's chunk, so actions it takes (rehoming
    threads, gating frame pools, degrading links) are visible to the very
    next simulated work. Keep it cheap: it runs per event. *)

val make_lock : t -> vpage:int -> Sync.lock
val make_barrier : t -> vpage:int -> parties:int -> Sync.barrier

val spawn : t -> ?cpu:int -> ?stack_vpage:int -> name:string -> (unit -> unit) -> int
(** Create a thread; returns its tid. Under [Affinity], [cpu] (default:
    round-robin over CPUs) is the thread's home for the whole run.
    [stack_vpage] names the thread's stack page, which system calls touch
    when the Unix-master model is active. Must be called before {!run}. *)

val run : t -> unit
(** Execute until every thread finishes. Raises {!Deadlock} or [Failure]
    (event budget exceeded) on pathological workloads. *)

val now : t -> float
(** Current virtual time; callable during [run] (e.g. from policies). *)

val clock_ns : t -> cpu:int -> float
(** A CPU's local clock — the conservation target for the profiler. *)

val user_ns : t -> cpu:int -> float
val system_ns : t -> cpu:int -> float
val total_user_ns : t -> float
val total_system_ns : t -> float
val elapsed_ns : t -> float
(** Wall-clock analogue: the largest CPU clock. *)

val n_events : t -> int
val n_threads : t -> int
val thread_cpu : t -> tid:int -> int
(** CPU the thread last ran on. [Invalid_argument] for a tid this engine
    never spawned. *)

val rehome : t -> tid:int -> cpu:int -> bool
(** Externally re-home a live thread onto [cpu]: its next scheduling
    turn runs there (the home CPU is only read at turn start, so this is
    deterministic), at the same 50 us dispatch cost as a self-migration
    ({!Api.migrate}), charged to the target CPU. Returns [false] — and
    does nothing — if the thread is unknown, already finished, or
    already homed on [cpu]. Under the [Single_queue] scheduler the home
    CPU is advisory and the next idle processor still wins. *)
