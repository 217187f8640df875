(** Per-CPU accumulator for kernel (system) time.

    The VM and NUMA layers charge protocol work here as they perform it;
    the simulation engine drains the accumulator after each operation and
    advances the faulting CPU's clock by the drained amount. Keeping the
    sink separate from the engine lets the lower layers stay ignorant of
    scheduling.

    When a {!Numa_obs.Profile} is attached, every charge is additionally
    queued with its cause category, the profiler context current at
    charge time and (when known) the logical page — and profiled at
    {e drain} time, the moment the nanoseconds actually land on a CPU
    clock. Never-drained residue therefore never reaches the profiler,
    which is what makes its conservation invariant exact. *)

type t

val create : n_cpus:int -> t

val set_profile : t -> Numa_obs.Profile.t option -> unit
(** Attach (or detach) the profiler receiving categorised charges. *)

val profile : t -> Numa_obs.Profile.t option

val add : t -> cpu:int -> cat:Numa_obs.Profile.kernel_cat -> lpage:int -> float -> unit
(** [add t ~cpu ~cat ~lpage ns] adds [ns] of system time against a CPU,
    categorised for the profiler under [cat] and the logical page
    [lpage] ([-1] for none). A negative charge raises [Invalid_argument].
    Every charge in the library comes through here: an optional argument
    passed from another module allocates its [Some] on each call, and
    the fault path charges several times per event. *)

val charge :
  t -> cpu:int -> ?cat:Numa_obs.Profile.kernel_cat -> ?lpage:int -> float -> unit
(** {!add} with [cat] defaulting to [Pmap_action] and [lpage] to none. *)

val drain : t -> cpu:int -> float
(** Return and reset the pending system time of a CPU, flushing its
    queued charges to the attached profiler. *)

val pending : t -> cpu:int -> float
(** Peek without resetting. *)

val total_charged : t -> cpu:int -> float
(** Cumulative system time ever charged to a CPU (not reset by [drain]). *)

val grand_total : t -> float
(** Cumulative system time across all CPUs. *)
