(** The pressure sweep: every Table 4 application run with its logical-page
    pool shrunk to a fraction of its working set, so the pageout daemon and
    the per-frame paging state machine carry the run.

    Each application is first run with ample memory to price the
    pressure-free machine and measure its working set (the pages the final
    placement sweep reports as touched); each variant then re-runs it on a
    machine whose pool is the working set divided by the variant's ratio,
    under one of the two victim policies, optionally with a frame squeeze
    injected on top (the chaos interaction). Every pressured run is
    paranoid, so the protocol {e and} per-frame paging invariants are
    audited from the daemon tick while the pager is busiest; the sweep
    reports the total violation count so a regression fails loudly. *)

type variant = {
  ratio : int;  (** working-set / RAM; 1 = just fits, 8 = severe *)
  victim : Numa_vm.Pageout.victim;
  squeeze : bool;  (** also inject a 50% frame squeeze on node 0 at 5 ms *)
}

val variant_name : variant -> string
(** e.g. ["4x/clock+squeeze"]. *)

val default_variants : unit -> variant list
(** Ratios 1, 2, 4, 8 under both victim policies, plus the squeeze
    interaction at ratio 4. *)

type cell = {
  app_name : string;
  baseline : Numa_system.Report.t;
      (** the ample-memory run: its placement gives the working set the
          pool is shrunk from, its time prices the pressure *)
  r : Numa_system.Report.t;  (** the pressured run *)
}

type row = { variant : variant; cells : cell list (* one per app, in app order *) }

val slowdown : cell -> float
(** User + system seconds of the pressured run over the baseline's
    (pressure's cost is kernel work); [nan] when the baseline's is not
    positive. *)

val run :
  ?jobs:int ->
  ?apps:Numa_apps.App_sig.t list ->
  ?variants:variant list ->
  ?spec:Runner.run_spec ->
  unit ->
  row list
(** Measure the [variants] x [apps] matrix through {!Parallel.map}
    ([spec]'s faults/victim/config_tweak are the base; each run layers its
    variant's pool shrink, victim and optional squeeze plan on top and
    forces [paranoid]). Rows come back in variant order. Defaults:
    {!default_variants} against the Table 4 set. [Invalid_argument] if
    [apps] or [variants] is empty or a ratio is < 1. *)

val total_violations : row list -> int
val total_oom : row list -> int

val render : topology:string -> row list -> string
(** Text table: per-app slowdown columns plus the mean slowdown and the
    paging, OOM and violation totals, one row per variant in matrix
    order. *)

val to_json : topology:string -> row list -> Numa_obs.Json.t
(** The whole sweep, including every cell's pool size, working set and
    full report — the artifact the CI smoke job uploads. *)
