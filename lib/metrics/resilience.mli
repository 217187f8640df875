(** The resilience sweep: {no-resilience, retry, retry+hedge,
    retry+breaker} x {intact, node-offline, link-degrade, frame-squeeze},
    every cell paranoid, on a pinned 4-worker machine at ~80% utilisation
    with a 1.5 ms deadline.

    The grid answers one question per column pair: how much goodput
    (in-deadline completions per second) does each mechanism recover,
    relative to the same config's intact run, when the machine degrades
    mid-serving? The node-offline scenario doubles as the CI acceptance
    gate: retry+breaker must hold at least twice the no-resilience
    goodput on the same seed ({!node_offline_gate}).

    Everything is virtual-time deterministic: same seed, same JSON, byte
    for byte, at any [--jobs]. *)

type mechanisms = {
  label : string;
  retry : Numa_apps.Resilience.retry option;
  hedge : Numa_apps.Resilience.hedge option;
  breaker : Numa_apps.Resilience.breaker option;
}

val configs : unit -> mechanisms list
(** The slate, in grid order: no-resilience (observe-only deadline),
    retry, retry+hedge, retry+breaker. *)

type cell = {
  config : string;  (** {!mechanisms} label *)
  scenario_name : string;
  r : Numa_system.Report.t;  (** carries a [resilience] section *)
}

type row = { name : string; cells : cell list (* one per config, slate order *) }

val run : ?jobs:int -> ?spec:Runner.run_spec -> unit -> row list
(** Fan the 16-cell grid out ([jobs] ways) and group it by scenario. The
    sweep pins [n_cpus]/[nthreads]/[scale]/faults and forces paranoid
    mode; only the seed (and scheduler knobs) of [spec] carry over. *)

val total_violations : row list -> int
(** Protocol invariant violations plus request-conservation violations,
    summed over the grid; nonzero fails the experiments section. *)

type gate = {
  no_resilience_goodput : float;
  retry_breaker_goodput : float;
  ratio : float;  (** retry+breaker over no-resilience, node-offline scenario *)
}

val node_offline_gate : row list -> gate
(** The acceptance-gate numbers from the node-offline row. *)

val render : row list -> string
(** Text table: SLO%, goodput, goodput vs the config's intact run,
    retry/hedge/shed/breaker volume, violations. *)

val to_json : row list -> Numa_obs.Json.t
(** Deterministic artifact: the gate, and per cell the resilience
    section, goodput-vs-intact and the full run report. *)
