(** The chaos sweep: every Table 4 application under a matrix of injected
    fault scenarios, with the protocol invariant checker riding along.

    Each cell is one {e faulted} run of an application, priced against the
    same application's fault-free single-CPU run (the T_local baseline),
    so gamma reads exactly like Table 4's: how much slower than the intact
    all-local machine. A graceful system degrades — gamma grows toward
    the all-global figure as local memory goes away — but never answers
    wrong: every faulted run is paranoid, and the sweep reports the total
    violation count so a regression fails loudly. *)

type scenario = { name : string; plan : Numa_faults.Plan.t }

val scenario : string -> string -> scenario
(** [scenario name spec] parses [spec] with {!Numa_faults.Plan.of_string};
    [Invalid_argument] on a malformed spec. *)

val default_scenarios : unit -> scenario list
(** The shipped matrix: healthy (fault-free reference), node-offline,
    node-flap, link-degrade, frame-squeeze, spurious-shootdowns, and a
    combined storm. Every plan fits a two-CPU-node machine. *)

type cell = {
  app_name : string;
  t_local : float;  (** the {e intact} machine's T_local for this app *)
  r : Numa_system.Report.t;  (** the faulted run's report *)
}

type row = { scenario : scenario; cells : cell list (* one per app, in app order *) }

val gamma : cell -> float
(** Faulted T_numa over the intact machine's T_local ([nan] when that is
    not positive). *)

val run :
  ?jobs:int ->
  ?apps:Numa_apps.App_sig.t list ->
  ?scenarios:scenario list ->
  ?spec:Runner.run_spec ->
  unit ->
  row list
(** Measure the [scenarios] x [apps] matrix through {!Parallel.map}
    ([spec.faults] is ignored; each row replaces it with its scenario's
    plan and forces [paranoid]). Rows come back in scenario order.
    Defaults: {!default_scenarios} against the Table 4 set. *)

val total_violations : row list -> int

val render : topology:string -> row list -> string
(** Text table: per-app gamma columns plus the mean gamma and the
    fault/drain/reclaim/violation totals of each scenario's robustness
    sections, one row per scenario in matrix order. *)

val to_json : topology:string -> row list -> Numa_obs.Json.t
(** The JSON artifact: per-scenario robustness totals and per-app gamma,
    each cell carrying its full faulted {!Numa_system.Report.to_json}. *)
