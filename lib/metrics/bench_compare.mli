(** Performance-regression observatory: compare two benchmark records.

    The benchmark harness ([bench/main.ml] via [BENCH_JSON_OUT]) writes a
    JSON record carrying the run configuration, the wall-clock event
    throughput of the reproduction pass, and the full Table 3
    measurements. This module summarizes such a record down to the
    numbers worth gating on — events/sec (wall-clock, noisy) and each
    application's gamma expansion factor and NUMA-policy run time
    (virtual-time, deterministic) — and diffs two summaries. Throughput is
    flagged when it drops by more than a threshold; the deterministic
    metrics are flagged on any change at all, in either direction.

    Summaries round-trip through JSON, so a compact baseline can be
    committed to the repository and compared against fresh bench output
    in CI. [summary_of_json] accepts both the full bench record and the
    compact form written by [to_json]. *)

type app_summary = {
  app : string;
  gamma : float;  (** T_numa / T_local — lower is better *)
  t_numa_s : float;  (** virtual seconds under the NUMA policy *)
}

type summary = {
  scale : float;
  cpus : int;
  events_per_sec : float option;  (** wall-clock; absent in old records *)
  apps : app_summary list;
}

val summary_of_json : Numa_obs.Json.t -> (summary, string) result
val load : string -> (summary, string) result
(** Parse a bench record (full or compact) from a file. *)

val to_json : summary -> Numa_obs.Json.t
(** The compact baseline form. *)

type line = {
  label : string;
  old_v : float;
  new_v : float;
  delta_pct : float;  (** (new - old) / old * 100 *)
  exact : bool;  (** a deterministic metric, compared with zero tolerance *)
  regressed : bool;
      (** fails the gate: an [exact] metric that changed, or throughput
          that dropped beyond the threshold *)
}

val diff : baseline:summary -> current:summary -> max_regress:float -> (line list, string) result
(** One line per comparable metric. [Error] when the records are not
    comparable at all (different scale or CPU count, or no common
    applications); missing individual metrics are skipped silently.
    [max_regress] is a percentage and governs events/sec only: it may
    drop by up to that much before its line is flagged. Gamma and t_numa
    are flagged on any difference. *)

val regressed : line list -> bool

val render : line list -> string
(** Table with one row per metric; flagged throughput rows are marked
    [REGRESSED], flagged deterministic rows [CHANGED]. *)
