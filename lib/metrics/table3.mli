(** Reproduction of Table 3: measured user times and computed model
    parameters for the application mix. *)

type row = {
  m : Runner.measurement;
  alpha_counted : float;
      (** directly counted alpha of the numa run, as a cross-check on the
          model-derived value *)
}

val run :
  ?apps:Numa_apps.App_sig.t list ->
  ?jobs:int ->
  ?spec:Runner.run_spec ->
  unit ->
  row list
(** Runs the full three-measurement protocol for every application
    (default: the paper's eight, at the default spec), distributing
    applications over [jobs] domains ({!Parallel.map}; default
    sequential). This is the heavyweight entry point behind
    [experiments table3]. *)

val render : row list -> string
(** The table in the paper's layout (T_global, T_numa, T_local, alpha,
    beta, gamma), with the measured-vs-paper comparison appended. *)

val render_comparison : row list -> string
(** Side-by-side measured vs published alpha/beta/gamma. *)
