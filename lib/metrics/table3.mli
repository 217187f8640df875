(** Reproduction of Table 3: measured user times and computed model
    parameters for the application mix. *)

val run :
  ?apps:Numa_apps.App_sig.t list ->
  ?jobs:int ->
  ?spec:Runner.run_spec ->
  unit ->
  Runner.measurement list
(** Runs the full three-measurement protocol for every application
    (default: the paper's eight, at the default spec), distributing
    applications over [jobs] domains ({!Parallel.map}; default
    sequential). This is the heavyweight entry point behind
    [experiments table3]. *)

val render : Runner.measurement list -> string
(** The table in the paper's layout (T_global, T_numa, T_local, alpha,
    beta, gamma), plus the numa run's directly counted alpha as a
    cross-check on the model-derived value. *)

val render_comparison : Runner.measurement list -> string
(** Side-by-side measured vs published alpha/beta/gamma. *)
