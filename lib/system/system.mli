(** A complete simulated ACE running Mach with NUMA page placement.

    This is the top of the substrate stack and the API applications are
    written against: it assembles the machine model (frames, MMU, costs),
    the Mach-flavoured VM (logical page pool, maps, fault handler), the
    paper's pmap layer (NUMA manager + policy) and the discrete-event
    engine, and exposes region allocation, thread spawning and
    synchronisation.

    Typical use:
    {[
      let sys = System.create ~config:(Config.ace ()) () in
      let data = System.alloc_region sys ~name:"data" ~kind:Data
                   ~sharing:Declared_write_shared ~pages:8 () in
      System.spawn sys ~name:"worker" (fun ~stack_vpage:_ ->
          Api.write data.base_vpage; Api.compute 1e6);
      let report = System.run sys in
      Format.printf "%a@." Report.pp report
    ]} *)

open Numa_machine

type policy_spec =
  | Move_limit of { threshold : int }
      (** the paper's policy; threshold 4 is the boot-time default *)
  | All_global  (** the T_global baseline *)
  | Never_pin  (** replicate/migrate forever *)
  | Random_assign of { p_global : float; seed : int64 }
  | Reconsider of { threshold : int; window_ns : float }
  | Decay of { threshold : float; half_life_ns : float }
      (** {!Numa_core.Policy.decay}: the move count halves every
          [half_life_ns] of simulated time *)
  | Bandwidth_aware of { threshold : int }
      (** {!Numa_core.Policy.bandwidth_aware}: topology latencies, link
          bandwidths and frame pressure pick the cheaper placement *)
  | Migrate_threads of { threshold : int }
      (** {!Numa_core.Policy.migrate_threads}: additionally re-homes
          threads toward their pinned pages from the daemon tick (the
          only spec for which the system applies migration hints) *)

val policy_spec_name : policy_spec -> string

val policy_spec_of_string : string -> (policy_spec, string) result
(** Parse the CLI policy syntax shared by [numa_sim] and [experiments]:
    [move-limit[:N]], [all-global], [never-pin], [random:P],
    [reconsider:N:MS], [decay[:T:HL-MS]], [bandwidth-aware[:N]],
    [migrate-threads[:N]] (durations in milliseconds of simulated
    time). *)

val builtin_policy_specs : policy_spec list
(** One representative spec per shipped policy, at its default
    parameters — the default slate for the policy tournament. *)

val policy_of_spec :
  ?pressure:(node:int -> float) ->
  policy_spec ->
  n_pages:int ->
  now:(unit -> float) ->
  topo:Numa_machine.Topo.t ->
  Numa_core.Policy.t
(** Instantiate a policy outside a full system (used by the trace-replay
    evaluator, which supplies trace timestamps as "now"). [pressure]
    (default: constantly 0) is the per-node local-pool in-use fraction
    consulted by [Bandwidth_aware]; {!create} wires it to the live frame
    table. *)

type region = private {
  base_vpage : int;
  pages : int;
  attr : Numa_vm.Region_attr.t;
  obj : Numa_vm.Vm_object.t;
  task : Numa_vm.Task.t;  (** the address space the region lives in *)
  counts : Report.ref_counts;
      (** live reference tally; shared by all regions with the same name *)
  writable_data : bool;  (** cached [Region_attr.is_writable_data attr] *)
}

type access_event = {
  at : float;
  cpu : int;
  tid : int;
  vpage : int;
  kind : Access.t;
  count : int;
  where : Location.relative;
  region : string;
}
(** One batched reference, as delivered to the trace hook. *)

type fault_notice =
  | Fault_node_offline of int
      (** the node just went offline; the system's own handling (page
          drain, pool close, table evacuation, thread rehoming) has
          already run, so the subscriber observes post-drain state *)
  | Fault_node_online of int  (** the node's memory just came back *)
(** Application-visible fault notifications (see {!component}) — what
    the serve app's shard failover and circuit breakers ride. *)

type component = {
  on_fault : fault_notice -> unit;
      (** called after the system's own handling of each node offline or
          online fault *)
  audit : (unit -> string list) option;
      (** an application invariant that must hold at any instant (the
          serve app's request-conservation ledger). Every audit — fault
          batches, [--paranoid] daemon ticks, {!audit} — appends its
          findings after the protocol sweep's, and a [Some] makes {!run}
          end with one audit, so the report carries a [robustness]
          section even on clean, non-paranoid runs. *)
  report : Report.t -> Report.t;
      (** called once by {!run} after the last thread finishes, to fill
          the application's report sections ({!Report.t.serving},
          {!Report.t.resilience}) *)
}
(** The one seam between the system and the application above it. *)

type t

val create :
  ?obs:Numa_obs.Hub.t ->
  ?policy:policy_spec ->
  ?scheduler:Numa_sim.Engine.scheduler_mode ->
  ?chunk_refs:int ->
  ?unix_master:bool ->
  ?faults:Numa_faults.Plan.t ->
  ?paranoid:bool ->
  ?profiling:bool ->
  ?victim:Numa_vm.Pageout.victim ->
  ?pt_mode:Numa_machine.Pt.mode ->
  config:Config.t ->
  unit ->
  t
(** Defaults: the paper's [Move_limit {threshold = 4}] policy, affinity
    scheduling, 2048-reference chunks, no Unix-master modelling. [obs]
    (default: a fresh hub with no sinks) is shared by every layer — bus,
    NUMA/pmap managers and engine — and stamped with the engine's virtual
    clock; attach sinks ({!Numa_obs.Chrome_trace}, {!Numa_obs.Timeseries},
    {!Numa_obs.Page_audit}) before running to observe the run.

    [faults] (default: none) is a deterministic fault schedule, validated
    against the machine ([Invalid_argument] on out-of-range nodes) and
    replayed from the engine's virtual clock; each injected batch is
    followed by a protocol-invariant audit. [paranoid] additionally runs
    the audit from the reconsideration daemon's tick. Either one makes
    {!run}'s report carry a [robustness] section; with both unset the
    report is byte-identical to earlier releases.

    [pt_mode] (default {!Numa_machine.Pt.Off}) materialises the page
    tables: table pages are allocated from the per-node frame pools,
    every software-TLB miss pays a charged multi-level walk, and (under
    [Replicated _]) per-node replica tables are kept PTE-coherent by
    shootdown. [Off] attaches nothing and reproduces the free-translation
    simulator byte for byte; the report carries a [pt] section exactly
    when a mode other than [Off] is given.

    [profiling] (default off) attaches a {!Numa_obs.Profile} to the
    engine and the cost sink: {!run}'s report then carries a [profile]
    section, and {!profile} exposes the live profiler. Profile data is
    purely virtual-time, hence deterministic; leaving it off keeps the
    report byte-identical to unprofiled releases.

    [victim] (default [Clock]) selects the pageout daemon's eviction
    policy ({!Numa_vm.Pageout.victim}). The daemon's async writeback pass
    runs from the reconsideration tick; a run that never pages renders
    the same report bytes regardless of [victim]. *)

val obs : t -> Numa_obs.Hub.t
(** The hub shared by all of this system's layers. *)

val alloc_region :
  t ->
  ?pragma:Numa_vm.Region_attr.pragma ->
  ?task:Numa_vm.Task.t ->
  name:string ->
  kind:Numa_vm.Region_attr.kind ->
  sharing:Numa_vm.Region_attr.sharing ->
  pages:int ->
  unit ->
  region
(** Allocate zero-fill virtual memory ([task] defaults to the workload
    task). [Code] regions are mapped read-only; everything else
    read-write. A [pragma] registers the section 4.3 placement override
    for the range. *)

val create_task : t -> name:string -> Numa_vm.Task.t
(** A further Mach task (its own address space and pmap). Threads are
    placed in a task via [spawn ~task]; memory is shared between tasks
    with {!map_shared}. Caveat: {!make_lock}/{!make_barrier} objects live
    at default-task addresses, so threads of other tasks can only use them
    if the sync region is mapped at the same virtual address in their
    task; cross-task workloads normally coordinate through shared memory
    instead. *)

val map_shared : t -> ?pragma:Numa_vm.Region_attr.pragma -> into:Numa_vm.Task.t -> region -> region
(** Map an existing region's memory object into another task — Mach's
    named-memory-object sharing: both tasks reach the same logical pages
    through their own pmaps, and the NUMA layer handles the cross-task
    sharing exactly like cross-thread sharing. Returns the new task's view
    (its own virtual addresses). *)

val make_lock : t -> name:string -> Numa_sim.Sync.lock
(** A spin lock on its own freshly allocated sync page. *)

val make_barrier : t -> name:string -> parties:int -> Numa_sim.Sync.barrier

val spawn :
  t -> ?cpu:int -> ?task:Numa_vm.Task.t -> ?stack_pages:int -> name:string ->
  (stack_vpage:int -> unit) -> int
(** Create a thread (in [task], default the workload task) with a private
    stack region ([stack_pages] pages, default 1); the body receives the
    stack's base page so it can issue the stack references real code
    would. Returns the tid. *)

val set_access_hook : t -> (access_event -> unit) option -> unit
(** Observe every batched reference (for tracing). *)

val set_component : t -> component -> unit
(** Register the application's component, replacing any earlier one. Set
    it during setup; batch apps never do, so their reports keep the exact
    key set (and bytes) of earlier releases. *)

val run : t -> Report.t
(** Run all spawned threads to completion and assemble the report. *)

(** {1 Introspection (tests, pager, experiments)} *)

val config : t -> Config.t
val engine : t -> Numa_sim.Engine.t
val pmap_manager : t -> Numa_core.Pmap_manager.t
val numa_manager : t -> Numa_core.Numa_manager.t
val policy : t -> Numa_core.Policy.t
val task : t -> Numa_vm.Task.t
val pool : t -> Numa_vm.Lpage_pool.t
val region_at : t -> ?task:Numa_vm.Task.t -> vpage:int -> unit -> region option

val lpage_of : t -> ?task:Numa_vm.Task.t -> vpage:int -> unit -> int option
(** Logical page currently backing a virtual page of a task (default the
    workload task), if materialised. *)

val migrate_pages : t -> src:int -> dst:int -> int
(** Kernel page migration after a thread re-homed with [Api.migrate]:
    moves every page local-writable on [src] to [dst] without counting
    policy moves. Call from inside the migrating thread's body, right
    after [Api.migrate]. *)

val page_out : t -> region -> page_index:int -> unit
(** Evict one page of a region through the pager (exercises the
    footnote-4 pin reset). *)

val profile : t -> Numa_obs.Profile.t option
(** The attached simulated-time profiler, when [profiling] was set. *)

val thread_migrations : t -> int
(** Thread re-homings applied by the daemon on behalf of a
    [Migrate_threads] policy; 0 under every other spec. *)

val audit : t -> Numa_core.Invariant.report
(** Run the full protocol-invariant sweep now, followed by the
    component's audit, counting it exactly like a scheduled paranoid
    check (the report's [invariant_checks] includes it). Never mutates
    protocol state. *)

val faults_injected : t -> int
(** Injector actions applied so far (plan entries + spurious shootdowns). *)

val invariant_violations : t -> int
(** Total violations across every audit so far; 0 = healthy. *)

val topo : t -> Topo.t
(** The resolved topology (distances drive shard-failover targeting). *)

val node_online : t -> node:int -> bool
(** Whether a node's memory is currently online (it starts online and
    changes only under injected node-offline/online faults). *)
