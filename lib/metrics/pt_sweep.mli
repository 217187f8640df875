(** The page-table sweep: every application run under each page-table
    materialisation mode, on each topology, against the free-translation
    run of the same machine.

    Translation used to be free; [--pt-mode] makes it a priced multi-level
    walk whose cost depends on where the table pages live. The sweep
    separates walk-heavy applications (TLB-hostile reference streams that
    miss the software TLB often) from walk-light ones, and shows where
    Mitosis-style per-node replication pays: the walk share collapses
    exactly when walks were many {e and} remote, at the price of the
    shootdown traffic every PTE change now multiplies. Every materialised
    run is paranoid, so the page-table relation (master table = exact
    image of the MMU, replicas = exact image of the master) is audited
    from the daemon tick while tables churn; the sweep reports the total
    violation count so a regression fails loudly. *)

open Numa_machine

type variant = { mode : Pt.mode; topology : string }

val variant_name : variant -> string
(** e.g. ["replicated/ace"]. *)

val default_modes : unit -> Pt.mode list
(** [Off], [Shared], eager [Replicated None], on-demand
    [Replicated (Some 2)]. *)

val default_topologies : unit -> string list
(** ["ace"] (shared global bus) and ["multi-socket"] (distance matters
    most, so replication has the most to win). *)

val default_variants : unit -> variant list
(** The full {!default_modes} x {!default_topologies} product, grouped by
    topology. *)

type cell = {
  app_name : string;
  baseline : Numa_system.Report.t;
      (** the free-translation ([Off]) run of the same app and topology *)
  r : Numa_system.Report.t;  (** the variant's run; [baseline] itself for [Off] *)
}

type row = { variant : variant; cells : cell list (* one per app, in app order *) }

val slowdown : cell -> float
(** User + system seconds over the baseline's (walks are kernel work);
    [nan] when the baseline's is not positive. *)

val run :
  ?jobs:int ->
  ?apps:Numa_apps.App_sig.t list ->
  ?variants:variant list ->
  ?spec:Runner.run_spec ->
  unit ->
  row list
(** Measure the [variants] x [apps] matrix through {!Parallel.map}. Each
    variant's topology overrides the base machine (then [spec]'s
    [config_tweak] applies on top); each materialised run forces
    [paranoid]. [Off] rows reuse the baseline runs, so they always read
    slowdown 1.00. Rows come back in variant order. Defaults:
    {!default_variants} against the Table 4 set. [Invalid_argument] if
    [apps] or [variants] is empty or a topology is unknown. *)

val total_violations : row list -> int

val render : row list -> string
(** Text table: per-app slowdown columns plus the mean slowdown, the mean
    walk share (fraction of total time spent walking tables) and the
    walk, shootdown, replica and violation totals, one row per variant in
    matrix order. *)

val to_json : row list -> Numa_obs.Json.t
(** The whole sweep, including every cell's full report — the artifact the
    CI smoke job uploads. *)
