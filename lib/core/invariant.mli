(** The protocol invariant checker.

    A full sweep of the coherence directory against the MMU, the frame
    pools and (optionally) the policy's pin set, stating what the
    Li & Hudak-style protocol promises between requests:

    - a local-writable page is owned by exactly one node, whose frame
      holds the only copy, and is mapped only on that node;
    - replicas exist only while the page is read-only (or at its homed
      node), and each read-only replica's cell equals the global
      master's — a read anywhere observes the coherent value;
    - no mapping or replica reaches a freed frame or an offline node;
    - a page the policy has pinned global holds no local copies.

    It is the one checker of the directory/MMU relation. It never raises,
    it collects {e every} violation, and it is cheap enough to run from
    the daemon tick under [--paranoid], after each injected fault, at the
    end of every run, and after every step of the property tests. *)

open Numa_machine

type report = {
  pages_checked : int;
  mappings_checked : int;
  replicas_checked : int;
  paging_checked : int;
      (** logical pages whose paging entry was checked against the
          per-frame relation; 0 without a [pool] or paging machine *)
  pt_checked : int;
      (** PTEs checked against the page-table relation (master table =
          exact image of the MMU, replicas = exact image of the master,
          nothing reaching freed frames or offline nodes); 0 when no
          {!Numa_machine.Pt.t} is attached to the MMU *)
  requests_checked : int;
      (** requests swept by the [requests] conservation closure (the
          served-traffic ledger: arrived = served-in-deadline + timed-out
          + shed + in-flight, each exactly once); 0 without one *)
  violations : string list;  (** empty = coherent; in page order *)
}

val check :
  ?pinned:(lpage:int -> bool) ->
  ?pool:Numa_vm.Lpage_pool.t ->
  ?requests:(unit -> int * string list) ->
  manager:Numa_manager.t ->
  mmu:Mmu.t ->
  frames:Frame_table.t ->
  config:Config.t ->
  unit ->
  report
(** [pinned] is usually the policy's [is_pinned]; omitting it skips the
    pinned-pages-hold-no-copies check. [requests] is the served-traffic
    request-conservation sweep a resilience-enabled serving app registers
    with the system layer: it returns (requests checked, violations) and
    must hold at {e any} instant of the run — double-resolved, lost or
    unaccounted requests become violations exactly like protocol
    breaches. [pool] enables the per-frame
    paging relation — no mapping or local copy into an Empty/Reading
    entry, free pool pages have Empty entries, no Reading bracket open
    at a quiescent point — which assumes the full VM stack's
    zero-fill/install discipline, hence the separate gate. Whenever the
    frame table carries a paging machine, the in-flight writeback list is
    also cross-checked against the per-entry Writeback states ("Writeback
    implies previously Dirty" is structural in
    {!Numa_machine.Paging.start_writeback} and cannot be violated at
    rest). Read-only: the sweep never mutates protocol state. *)

val result : report -> (unit, string) result
(** [Ok ()] when coherent, otherwise a one-line summary naming the first
    violation and the total count. *)

val pp : Format.formatter -> report -> unit
