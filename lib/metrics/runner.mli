(** Drives applications through the simulator under the measurement
    protocol of section 3.1. *)

open Numa_machine

type run_spec = {
  policy : Numa_system.System.policy_spec;
  n_cpus : int;
  nthreads : int;
  scale : float;
  seed : int64;
  scheduler : Numa_sim.Engine.scheduler_mode;
  unix_master : bool;
  config_tweak : Config.t -> Config.t;
      (** applied to the ACE base configuration; identity for the paper's
          machine, used by the G/L and page-size ablations *)
  faults : Numa_faults.Plan.t;
      (** deterministic fault schedule for the measured run; the T_global
          and T_local baselines of {!measure} always run fault-free *)
  paranoid : bool;  (** audit protocol invariants from the daemon tick *)
  profiling : bool;
      (** attach the simulated-time profiler; measured reports then carry
          a [profile] section (deterministic, so safe in golden JSON) *)
  victim : Numa_vm.Pageout.victim;
      (** pageout victim-selection policy (default [Clock]); only matters
          under memory pressure *)
  pt_mode : Pt.mode;
      (** page-table materialisation (default [Off] = free translation);
          applied to the measured run {e and} both baselines, so gamma
          under [Shared]/[Replicated _] compares like with like *)
}

val default_spec : run_spec
(** Move-limit(4), 7 CPUs, 7 threads, scale 1.0, affinity scheduling, no
    faults. *)

val config_for : run_spec -> Config.t
(** The machine configuration a spec runs on: the ACE at the spec's
    processor count with its tweak applied. *)

val with_topology : run_spec -> string -> run_spec
(** [with_topology spec name] runs [spec] on the built-in topology [name]
    ({!Numa_machine.Config.builtin_topologies}) at the spec's processor
    count, with [spec]'s own [config_tweak] applied on top.
    [Invalid_argument] naming the known topologies if [name] is not one. *)

val system : ?obs:Numa_obs.Hub.t -> Numa_apps.App_sig.t -> run_spec -> Numa_system.System.t
(** A fresh system on {!config_for}[ spec] with every spec field applied
    and the application set up, but not yet run: the one place an
    application's system is built, so callers can attach observers before
    {!Numa_system.System.run}. [obs] is passed to
    {!Numa_system.System.create}. [Invalid_argument] if the machine or the
    fault plan is invalid. *)

val run : Numa_apps.App_sig.t -> run_spec -> Numa_system.Report.t
(** One run: [System.run (system app spec)]. *)

type measurement = {
  app_name : string;
  times : Model.times;  (** user times in seconds *)
  gl : float;  (** the G/L ratio used for this program's model *)
  alpha : float;  (** equation 4 *)
  beta : float;  (** equation 5 *)
  gamma : float;  (** equation 1 *)
  r_numa : Numa_system.Report.t;
  r_global : Numa_system.Report.t;
  r_local : Numa_system.Report.t;
}

val measure : Numa_apps.App_sig.t -> run_spec -> measurement
(** The paper's three-run protocol: T_numa under [spec]'s policy, T_global
    under the all-global policy, and T_local with one thread on a one-CPU
    machine; then the derived model parameters. [spec.policy] is the policy
    measured as "numa". *)

val measure_many :
  ?jobs:int -> Numa_apps.App_sig.t list -> run_spec -> measurement list
(** {!measure} for each application, distributed over [jobs] domains
    ({!Parallel.map}); results are in application order and identical to
    the sequential ones. *)

val times_to_json : Model.times -> Numa_obs.Json.t

val app_gl : Numa_apps.App_sig.t -> Config.t -> float
(** G/L for the program's reference mix: the fetch ratio (2.3) for
    fetch-dominated programs, the 45%-store mix (~2.0) otherwise —
    Table 3, footnote 3. *)
