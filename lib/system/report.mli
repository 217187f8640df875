(** Results of one simulated run — the raw material of every experiment.

    Times follow the Unix [time(1)] split the paper measures with: user
    time is references + computation + spinning; system time is fault
    handling, protocol actions, page copies and system-call service.
    T_numa / T_global / T_local of section 3.1 are [total_user_s] of runs
    under the corresponding policies. *)

type ref_counts = {
  mutable local_reads : int;
  mutable local_writes : int;
  mutable global_reads : int;
  mutable global_writes : int;
  mutable remote_reads : int;
  mutable remote_writes : int;
}

val zero_counts : unit -> ref_counts
val total_refs : ref_counts -> int
val local_fraction : ref_counts -> float
(** Directly counted alpha: local references over all references. *)

type robustness = {
  fault_plan : string;  (** canonical {!Numa_faults.Plan.to_string} *)
  faults_injected : int;  (** injector actions applied, plan + spurious *)
  node_drains : int;
  drained_pages : int;  (** local copies evacuated off dying nodes *)
  threads_rehomed : int;  (** threads moved off offline nodes *)
  reclaim_retries : int;  (** frame-allocation failures retried via page-out *)
  reclaim_rescues : int;  (** retries that then succeeded *)
  spurious_shootdowns : int;
  oom_faults : int;  (** faults that failed even after reclamation *)
  invariant_checks : int;
  invariant_violations : int;  (** total across all checks; 0 = healthy run *)
  first_violations : string list;  (** the first check's violations, verbatim *)
}

type paging = {
  page_ins : int;  (** faults served by a modeled disk read *)
  evictions : int;  (** pages the pageout daemon pushed out *)
  clean_evictions : int;  (** evictions that skipped the disk write *)
  dirty_evictions : int;  (** evictions that paid a synchronous writeback *)
  writebacks_started : int;  (** async writebacks launched by the daemon *)
  writebacks_completed : int;
  writebacks_canceled : int;  (** in-flight writebacks whose page was freed *)
  sync_writebacks : int;  (** eviction-path writebacks (the foreground cost) *)
  redirtied : int;  (** stores that hit a page mid-writeback *)
  disk_read_ns : float;  (** total modeled page-in latency *)
  disk_write_ns : float;  (** total modeled writeback latency *)
  resident_clean : int;  (** end-of-run paging-state census *)
  resident_dirty : int;
  in_writeback : int;
}
(** The paging tier's activity summary (per-frame state machine +
    writeback daemon). *)

type pt = {
  pt_mode : string;  (** canonical {!Numa_machine.Pt.mode_to_string} *)
  walks : int;  (** charged multi-level walks (= TLB misses while attached) *)
  walk_levels : int;  (** total table levels read over all walks *)
  walk_ns : float;  (** total walk latency by the topology matrix *)
  pte_updates : int;  (** replica PTE installs (silent propagation) *)
  pte_shootdowns : int;  (** replica PTE invalidations / retargets *)
  shootdown_ns : float;
  replicas_built : int;
  replicas_dropped : int;
  pt_frames : int array;  (** per-node frames backing table pages at end of run *)
  global_pt_pages : int;  (** table pages that fell back to the shared level *)
  tlb_per_cpu : (int * int * int) array;
      (** per-CPU (hits, misses, shootdowns): the hit rate that decides how
          often the walk cost is actually paid *)
}
(** Materialised-page-table activity; present only under [--pt-mode]
    [shared] or [replicated]. *)

type serving = {
  requests : int;  (** completed requests (all arrivals are served) *)
  arrival_spec : string;  (** canonical {!Numa_util.Dist.arrival_to_string} *)
  zipf_theta : float;  (** key-popularity skew of the request stream *)
  clients : int;  (** logical client population multiplexed on the trace *)
  write_fraction : float;  (** fraction of requests that mutate their object *)
  span_ns : float;  (** first arrival to last completion *)
  throughput_rps : float;  (** requests / span *)
  mean_us : float;  (** arrival-to-completion latency, microseconds *)
  p50_us : int;
  p95_us : int;
  p99_us : int;
  p999_us : int;  (** the SLO tail the serve experiments compare policies on *)
  max_us : int;
  queue_mean_us : float;  (** arrival-to-service-start share of the latency *)
  queue_p99_us : int;
  per_worker_served : int array;  (** requests completed by each shard worker *)
}
(** Open-loop served-traffic summary (the {!Numa_apps.Serve} family):
    per-request latency percentiles with queue-delay attribution. *)

type resilience = {
  res_spec : string;  (** canonical {!Numa_apps.Resilience.to_string} *)
  deadline_us : int;  (** per-request SLO deadline *)
  arrived : int;  (** requests the workers picked up *)
  served_in_deadline : int;  (** completed within their deadline *)
  timed_out : int;  (** deadline exceeded (attempts exhausted or late) *)
  shed : int;  (** rejected immediately by an open circuit breaker *)
  timeouts : int;  (** attempt-level deadline fires (every cancelled attempt) *)
  attempts_started : int array;
      (** index [k] = requests whose attempt number [k+1] started; hedged
          seconds count as the next attempt number. Index 0 is at most
          [arrived - shed]: a request picked up already past its deadline
          (a stale backlog under overload) resolves timed-out without
          starting any attempt. *)
  hedges : int;  (** hedged second attempts launched *)
  hedge_wins : int;  (** hedged attempts that then met the deadline *)
  breaker_opens : int;  (** closed/half-open -> open transitions *)
  breaker_transitions : int;  (** all breaker state changes *)
  shard_failovers : int;  (** shard workers re-homed off a dead node *)
  goodput_rps : float;  (** in-deadline completions / serving span *)
  slo_pct : float;  (** 100 * served_in_deadline / arrived *)
  conservation_violations : int;
      (** request-conservation findings recorded at resolve time (a
          request resolved twice or resolved before arriving); 0 = every
          arrived request is exactly one of the three outcomes *)
}
(** Request-level resilience summary: outcome conservation, retry/hedge
    volume, breaker and failover activity, goodput against the SLO. *)

type t = {
  policy_name : string;
  n_cpus : int;
  n_threads : int;
  user_ns_per_cpu : float array;
  system_ns_per_cpu : float array;
  total_user_ns : float;
  total_system_ns : float;
  elapsed_ns : float;
  refs_all : ref_counts;  (** every data reference the run made *)
  refs_writable_data : ref_counts;  (** references to writable-data regions only *)
  per_region : (string * ref_counts) list;
  alpha_counted : float;
      (** measured alpha over writable data (reference counts, not the
          timing model): cross-checks equation 4 *)
  numa_enters : int;
  numa_moves : int;
  numa_copies_to_local : int;
  numa_syncs_to_global : int;
  numa_replicas_flushed : int;
  numa_mappings_dropped : int;
  numa_zero_fills_local : int;
  numa_zero_fills_global : int;
  numa_local_fallbacks : int;
  tlb_hits : int;  (** software-TLB fast-path translations *)
  tlb_misses : int;  (** translations that walked the MMU hash table *)
  tlb_shootdowns : int;  (** live cached translations invalidated by protocol actions *)
  pins : int;  (** pages pinned in global by the policy *)
  placement : (string * int) list;  (** final logical-page states *)
  policy_info : (string * string) list;
  n_events : int;
  lock_acquisitions : int;
  lock_contended_polls : int;
  bus_words : int;  (** global-memory traffic offered to the IPC bus *)
  bus_delay_ns : float;  (** queueing delay charged by the contention model *)
  robustness : robustness option;
      (** fault-drill summary; [None] on clean runs, which therefore render
          (text and JSON) byte-identically to earlier releases *)
  paging : paging option;
      (** [None] unless the run actually paged (page-ins, evictions or
          writebacks), with the same byte-identity guarantee *)
  profile : Numa_obs.Profile.snapshot option;
      (** simulated-time cost attribution; [None] unless the run was
          profiled, preserving the same byte-identity guarantee *)
  pt : pt option;
      (** page-table walk/replication counters; [None] unless tables were
          materialised, preserving the same byte-identity guarantee *)
  serving : serving option;
      (** served-traffic latency summary; [None] for batch apps, preserving
          the same byte-identity guarantee *)
  resilience : resilience option;
      (** request-level resilience summary; [None] unless the serving app
          ran with a resilience policy, preserving the same byte-identity
          guarantee *)
}

val total_user_s : t -> float
val total_system_s : t -> float

val pp : Format.formatter -> t -> unit
(** Multi-section human-readable report. *)

val summary_line : t -> string
(** One line: user/system seconds, alpha, moves, pins. *)

val counts_to_json : ref_counts -> Numa_obs.Json.t

val resilience_to_json : resilience -> Numa_obs.Json.t
(** The [resilience] section's JSON object, as {!to_json} embeds it. *)

val to_json : t -> Numa_obs.Json.t
(** The whole report as a JSON object: every counter {!pp} prints (and the
    per-CPU time arrays it does not), keyed stably for downstream tools. *)
