(** Reproduction of Table 4: total system time of the NUMA-managed and
    all-global runs on 7 processors, and the NUMA-management overhead
    Delta-S / T_numa. *)

val of_measurements : Runner.measurement list -> Runner.measurement list
(** Table 4 is computed from the same runs as Table 3: the measurements
    of the five Table-4 programs, in order (others are filtered by
    name). *)

val run : ?spec:Runner.run_spec -> unit -> Runner.measurement list
(** Standalone: measure the five Table-4 programs. *)

val delta_s : Runner.measurement -> float option
(** System seconds of the numa run over the all-global run's; [None]
    when not positive (the paper's "na"). *)

val overhead_pct : Runner.measurement -> float
(** {!delta_s} as a percentage of T_numa; 0 when {!delta_s} is [None]. *)

val render : Runner.measurement list -> string
val render_comparison : Runner.measurement list -> string
