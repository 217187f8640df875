(** The one sweep mechanism every experiment driver shares: fan a
    [rows x cols] grid of independent runs out through {!Parallel.map},
    then hand each row back with its cells. Per-row aggregates stay with
    the driver; the shared helpers below are the ones every driver needs. *)

val grid : ?jobs:int -> 'r list -> 'c list -> ('r -> 'c -> 'a) -> ('r * 'a list) list
(** [grid ?jobs rows cols f] evaluates [f r c] for the whole product in one
    fan-out over [jobs] domains and regroups it in row order, each row's
    cells in [cols] order — the same values as the nested sequential
    loops, at any [jobs]. *)

val mean : float list -> float
(** Arithmetic mean; [nan] for the empty list. *)

val sum : ('a -> int) -> 'a list -> int

val audits : Numa_system.Report.t -> int * int
(** (invariant checks, invariant violations) of a run; [(0, 0)] when the
    report has no robustness section (a clean, non-paranoid run). *)
