(** The policy tournament: every placement policy against every
    application on one machine, under the three-run measurement protocol.

    Each (policy, app) cell is a full {!Runner.measure} — T_numa under
    the candidate policy, T_global and T_local as the usual baselines —
    so policies are compared on the paper's own model parameters
    (gamma/alpha/beta) rather than raw times. The whole matrix fans out
    through {!Parallel.map}. *)

type row = {
  policy : Numa_system.System.policy_spec;
  cells : Runner.measurement list;  (** one per app, in app order *)
}

val mean_gamma : row -> float
(** Arithmetic mean of per-app gamma (equation 1). *)

val run :
  ?jobs:int ->
  ?policies:Numa_system.System.policy_spec list ->
  ?apps:Numa_apps.App_sig.t list ->
  ?spec:Runner.run_spec ->
  unit ->
  row list
(** Measure the full [policies] x [apps] matrix ([spec.policy] is
    ignored; each row replaces it with its own policy). Defaults: every
    shipped policy ({!Numa_system.System.builtin_policy_specs}) against
    the Table 4 application set, on [spec]'s machine. Rows come back
    sorted best-first by mean gamma (stable, so ties keep registration
    order). *)

val render : topology:string -> row list -> string
(** Text comparison table: per-app gamma columns plus the
    mean-gamma/alpha/beta and the move/pin totals of the T_numa runs,
    best policy first. Mean alpha is over the apps where alpha is
    meaningful, ["na"] when it is meaningful nowhere. *)

val to_json : topology:string -> row list -> Numa_obs.Json.t
(** The JSON artifact: per-policy summaries with per-app
    gamma/alpha/beta, the three times, and move/pin counts. *)
