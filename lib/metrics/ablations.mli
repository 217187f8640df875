(** Studies beyond the paper's two tables: the policy-parameter and design
    questions the paper raises in sections 2.3.2, 4.2, 4.3, 4.6, 4.7 and 5.
    Each returns its runs' reports or measurements, with the labels and
    baselines they do not hold, plus a renderer that derives every column
    from them; each is reachable from [bin/experiments.exe]. *)

type priced = {
  app : string;
  t_local : float;  (** the app's single-CPU user time, gamma's denominator *)
  r : Numa_system.Report.t;
}
(** One run of a sweep that prices every run against its app's T_local. *)

(** {1 Move-threshold sweep (section 2.3.2)} *)

val threshold_sweep :
  ?apps:Numa_apps.App_sig.t list ->
  ?jobs:int ->
  ?thresholds:int option list ->
  ?spec:Runner.run_spec ->
  unit ->
  priced list
(** One run per app and threshold ([None] = never pin), app-major.
    [?jobs] here and in the other sweeps distributes the independent runs
    over that many domains ({!Parallel.map}); results come back in the
    same order, with the same values, as the sequential sweep. *)

val render_threshold_sweep : priced list -> string

(** {1 Scheduler affinity (section 4.7)} *)

val scheduler_study :
  ?apps:Numa_apps.App_sig.t list -> ?jobs:int -> ?spec:Runner.run_spec -> unit ->
  (string * Numa_system.Report.t * Numa_system.Report.t) list
(** Per app: its name, the affinity-scheduled run and the original Mach
    single-queue run. *)

val render_scheduler_study :
  (string * Numa_system.Report.t * Numa_system.Report.t) list -> string

(** {1 G/L ratio sensitivity} *)

val gl_sweep :
  ?app:Numa_apps.App_sig.t -> ?jobs:int -> ?factors:float list -> ?spec:Runner.run_spec ->
  unit -> (float * Runner.measurement) list
(** Per multiplier on the global reference times, the measurement on
    that machine; the rendered G/L is the measurement's model ratio
    (the mixed one for the default fft). *)

val render_gl_sweep : (float * Runner.measurement) list -> string

(** {1 Placement pragmas (section 4.3)} *)

val pragma_study : ?spec:Runner.run_spec -> unit -> (string * Numa_system.Report.t) list
(** primes3 with and without noncacheable pragmas on its shared vectors. *)

val render_pragma_study : (string * Numa_system.Report.t) list -> string

(** {1 Unix master (section 4.6)} *)

val unix_master_study :
  ?spec:Runner.run_spec -> unit -> (string * Numa_system.Report.t) list
(** syscall-mix with system calls on the Unix master, then fixed. *)

val stack_global_refs : Numa_system.Report.t -> int
(** Global references the run made to stack regions. *)

val render_unix_master_study : (string * Numa_system.Report.t) list -> string

(** {1 Processor-count sweep} *)

val cpu_sweep :
  ?apps:Numa_apps.App_sig.t list -> ?jobs:int -> ?cpu_counts:int list ->
  ?spec:Runner.run_spec -> unit -> priced list
(** The paper's method requires measurements "not vary too much with the
    number of processors"; this sweep checks that requirement for our
    programs (T_numa and alpha across 2-8 CPUs), app-major. *)

val render_cpu_sweep : priced list -> string

(** {1 Butterfly-class machines (section 4.4)} *)

val butterfly_study :
  ?apps:Numa_apps.App_sig.t list -> ?jobs:int -> ?spec:Runner.run_spec -> unit ->
  (Runner.measurement * Runner.measurement) list
(** Per app, its measurement on the ACE and on a machine whose shared
    level is as slow as remote memory (no physically global memory):
    placement quality (alpha) is machine-independent, but the penalty
    for the residual shared references grows with the steeper ratio. *)

val render_butterfly_study : (Runner.measurement * Runner.measurement) list -> string

(** {1 Topology sweep (N-node distance matrices)} *)

val topology_sweep :
  ?apps:Numa_apps.App_sig.t list ->
  ?jobs:int ->
  ?topologies:string list ->
  ?spec:Runner.run_spec ->
  unit ->
  (string * Runner.measurement) list
(** The same workload and policy on machines that differ only in their
    distance matrix ({!Numa_machine.Config.builtin_topologies} by
    default: the classic ACE, the scalar butterfly retiming, the true
    striped-shared-level butterfly, and a two-tier multi-socket matrix),
    as (topology, measurement), app-major. Placement quality (alpha) is
    machine-independent; the cost of the residual shared and remote
    references is not. *)

val render_topology_sweep : (string * Runner.measurement) list -> string

(** {1 IPC-bus contention} *)

type bus_row = {
  bu_bandwidth_mb_s : float;  (** 0 = infinite (the default model) *)
  bu_numa : Numa_system.Report.t;
  bu_global : Numa_system.Report.t;  (** the all-global run, whose bus queue is shown *)
  bu_t_local : float;
}

val bus_study :
  ?app:Numa_apps.App_sig.t -> ?jobs:int -> ?bandwidths:float list ->
  ?spec:Runner.run_spec -> unit -> bus_row list
(** Sweep the IPC-bus bandwidth (MB/s) for a global-memory-intensive
    program (default gfetch) and show where the paper's "relatively free
    of bus contention" assumption breaks: with the real 80 MB/s bus the
    7-CPU fetch stream is comfortably under capacity, but a few times less
    bandwidth makes the all-global run queue-bound. *)

val render_bus_study : bus_row list -> string

(** {1 Remote references (section 4.4)} *)

val remote_study : ?spec:Runner.run_spec -> unit -> (string * Numa_system.Report.t) list
(** The lopsided workload with the status buffer under normal policy
    (pinned global) vs homed in the producer's local memory. *)

val render_remote_study : (string * Numa_system.Report.t) list -> string

(** {1 Thread migration (section 4.7)} *)

val migration_study : ?spec:Runner.run_spec -> unit -> (string * Numa_system.Report.t) list
(** The re-homed thread with and without kernel page migration. *)

val render_migration_study : (string * Numa_system.Report.t) list -> string

(** {1 Pin reconsideration (footnote 4 / section 5)} *)

val reconsider_study :
  ?spec:Runner.run_spec -> ?window_ms:float -> unit -> (string * Numa_system.Report.t) list
(** The phase-shifting workload under move-limit vs the reconsider
    extension, labelled by policy. *)

val render_reconsider_study : (string * Numa_system.Report.t) list -> string
