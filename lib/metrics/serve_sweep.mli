(** The serve sweep: the open-loop serving workload ({!Numa_apps.Serve})
    under a grid of placement policies and machine topologies, reported as
    tail-latency percentiles.

    Batch sweeps price a policy by total run time; a served system is
    priced by what its slowest requests see. Because the arrival process
    is open-loop (the same offered load hits every cell), any latency
    difference between cells is pure placement policy: service-time
    inflation compounds into queueing and shows up at p99/p99.9 long
    before it moves the mean. Every run is paranoid, and each topology
    row also runs the default policy with a node offlined mid-warmup —
    the serving system must degrade (a bigger tail) without a single
    protocol invariant violation. *)

val default_policies : unit -> Numa_system.System.policy_spec list
(** Move-limit(4), all-global, never-pin, bandwidth-aware(4). *)

val default_topologies : unit -> string list
(** ["ace"; "multi-socket"; "butterfly"]. *)

val offline_plan : unit -> Numa_faults.Plan.t
(** Node 1 offlined at 5 ms — mid-warmup, so the tail shows steady-state
    serving on the shrunken machine, not the drain transient. *)

type cell = {
  policy : Numa_system.System.policy_spec;
  faulted : bool;  (** ran under {!offline_plan}, not fault-free *)
  r : Numa_system.Report.t;
}

type row = {
  topology : string;
  cells : cell list;  (** one per policy, fault-free, in slate order *)
  offline : cell;  (** the default policy with node 1 offlined mid-warmup *)
}

val serving : cell -> Numa_system.Report.serving
(** The run's serving section; [Invalid_argument] naming the policy if
    the run has none (not a serve app). *)

val p99_spread : row -> float
(** Worst over best fault-free p99 — the tail-latency gap placement
    policy alone opens on this machine. *)

val run :
  ?jobs:int ->
  ?app:Numa_apps.App_sig.t ->
  ?policies:Numa_system.System.policy_spec list ->
  ?topologies:string list ->
  ?spec:Runner.run_spec ->
  unit ->
  row list
(** Measure the grid through {!Parallel.map}: per topology, every policy
    fault-free plus the first policy under {!offline_plan}; [spec.policy]
    and [spec.faults] are replaced cell by cell and every run forces
    [paranoid]. [app] must fill the report's [serving] section (default
    {!Numa_apps.Serve.app}; [Invalid_argument] otherwise). Rows come back
    in topology order, deterministic for a fixed spec. *)

val total_violations : row list -> int

val render : scale:float -> row list -> string
(** Text table: one line per (topology, policy) cell plus each topology's
    node-offline line — latency percentiles in microseconds, throughput,
    and violations. *)

val to_json : row list -> Numa_obs.Json.t
(** The JSON artifact: per-topology p99 spread and per-cell latency
    summaries, each cell carrying its full {!Numa_system.Report.to_json}
    (whose [serving] key round-trips the same numbers). *)
