type ref_counts = {
  mutable local_reads : int;
  mutable local_writes : int;
  mutable global_reads : int;
  mutable global_writes : int;
  mutable remote_reads : int;
  mutable remote_writes : int;
}

let zero_counts () =
  {
    local_reads = 0;
    local_writes = 0;
    global_reads = 0;
    global_writes = 0;
    remote_reads = 0;
    remote_writes = 0;
  }

let total_refs c =
  c.local_reads + c.local_writes + c.global_reads + c.global_writes + c.remote_reads
  + c.remote_writes

let local_fraction c =
  let total = total_refs c in
  if total = 0 then 0.
  else float_of_int (c.local_reads + c.local_writes) /. float_of_int total

type robustness = {
  fault_plan : string;
  faults_injected : int;
  node_drains : int;
  drained_pages : int;
  threads_rehomed : int;
  reclaim_retries : int;
  reclaim_rescues : int;
  spurious_shootdowns : int;
  oom_faults : int;
  invariant_checks : int;
  invariant_violations : int;
  first_violations : string list;
}

type paging = {
  page_ins : int;
  evictions : int;
  clean_evictions : int;
  dirty_evictions : int;
  writebacks_started : int;
  writebacks_completed : int;
  writebacks_canceled : int;
  sync_writebacks : int;
  redirtied : int;
  disk_read_ns : float;
  disk_write_ns : float;
  resident_clean : int;
  resident_dirty : int;
  in_writeback : int;
}

type pt = {
  pt_mode : string;
  walks : int;
  walk_levels : int;
  walk_ns : float;
  pte_updates : int;
  pte_shootdowns : int;
  shootdown_ns : float;
  replicas_built : int;
  replicas_dropped : int;
  pt_frames : int array;
  global_pt_pages : int;
  tlb_per_cpu : (int * int * int) array;
      (** per-CPU (hits, misses, shootdowns) — the hit rate each walk
          counter is competing against *)
}

type serving = {
  requests : int;
  arrival_spec : string;
  zipf_theta : float;
  clients : int;
  write_fraction : float;
  span_ns : float;
  throughput_rps : float;
  mean_us : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  p999_us : int;
  max_us : int;
  queue_mean_us : float;
  queue_p99_us : int;
  per_worker_served : int array;
}

type resilience = {
  res_spec : string;
  deadline_us : int;
  arrived : int;
  served_in_deadline : int;
  timed_out : int;
  shed : int;
  timeouts : int;
  attempts_started : int array;
  hedges : int;
  hedge_wins : int;
  breaker_opens : int;
  breaker_transitions : int;
  shard_failovers : int;
  goodput_rps : float;
  slo_pct : float;
  conservation_violations : int;
}

type t = {
  policy_name : string;
  n_cpus : int;
  n_threads : int;
  user_ns_per_cpu : float array;
  system_ns_per_cpu : float array;
  total_user_ns : float;
  total_system_ns : float;
  elapsed_ns : float;
  refs_all : ref_counts;
  refs_writable_data : ref_counts;
  per_region : (string * ref_counts) list;
  alpha_counted : float;
  numa_enters : int;
  numa_moves : int;
  numa_copies_to_local : int;
  numa_syncs_to_global : int;
  numa_replicas_flushed : int;
  numa_mappings_dropped : int;
  numa_zero_fills_local : int;
  numa_zero_fills_global : int;
  numa_local_fallbacks : int;
  tlb_hits : int;
  tlb_misses : int;
  tlb_shootdowns : int;
  pins : int;
  placement : (string * int) list;
  policy_info : (string * string) list;
  n_events : int;
  lock_acquisitions : int;
  lock_contended_polls : int;
  bus_words : int;
  bus_delay_ns : float;
  robustness : robustness option;
      (** present only on faulted / paranoid runs, keeping clean reports
          byte-identical to earlier releases *)
  paging : paging option;
      (** present only when the run actually paged (page-ins, evictions or
          writebacks happened); like [robustness], its absence keeps
          pressure-free reports byte-identical *)
  profile : Numa_obs.Profile.snapshot option;
      (** present only when the run was profiled; like [robustness], its
          absence keeps unprofiled reports byte-identical *)
  pt : pt option;
      (** present only when page tables were materialised ([--pt-mode]
          other than [none]); same byte-identity guarantee *)
  serving : serving option;
      (** present only for served-traffic workloads (the app's component
          filled it); batch-app reports keep the same byte-identity
          guarantee *)
  resilience : resilience option;
      (** present only when the serving app ran with a resilience policy
          (deadlines/retries/hedging/breakers); plain serving runs and
          batch apps keep the same byte-identity guarantee *)
}

let total_user_s t = t.total_user_ns /. 1e9
let total_system_s t = t.total_system_ns /. 1e9

let summary_line t =
  Printf.sprintf "policy=%s cpus=%d user=%.2fs system=%.2fs alpha=%.3f moves=%d pins=%d"
    t.policy_name t.n_cpus (total_user_s t) (total_system_s t) t.alpha_counted
    t.numa_moves t.pins

let pp_counts ppf c =
  Format.fprintf ppf "local %d/%d  global %d/%d  remote %d/%d (reads/writes)"
    c.local_reads c.local_writes c.global_reads c.global_writes c.remote_reads
    c.remote_writes

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "run: policy=%s, %d CPUs, %d threads@," t.policy_name t.n_cpus
    t.n_threads;
  Format.fprintf ppf "time: user %.3f s, system %.3f s, elapsed %.3f s, %d events@,"
    (total_user_s t) (total_system_s t) (t.elapsed_ns /. 1e9) t.n_events;
  Format.fprintf ppf "refs (all): %a@," pp_counts t.refs_all;
  Format.fprintf ppf "refs (writable data): %a@," pp_counts t.refs_writable_data;
  Format.fprintf ppf "alpha (counted): %.4f@," t.alpha_counted;
  Format.fprintf ppf
    "numa: enters %d, moves %d, copies %d, syncs %d, flushes %d, unmapped %d@,"
    t.numa_enters t.numa_moves t.numa_copies_to_local t.numa_syncs_to_global
    t.numa_replicas_flushed t.numa_mappings_dropped;
  Format.fprintf ppf "zero fills: %d local, %d global; fallbacks %d; pins %d@,"
    t.numa_zero_fills_local t.numa_zero_fills_global t.numa_local_fallbacks t.pins;
  Format.fprintf ppf "locks: %d acquisitions, %d contended polls@," t.lock_acquisitions
    t.lock_contended_polls;
  (if t.tlb_hits + t.tlb_misses > 0 then
     let rate =
       float_of_int t.tlb_hits /. float_of_int (t.tlb_hits + t.tlb_misses)
     in
     Format.fprintf ppf "tlb: %d hits, %d misses (%.2f%% hit), %d shootdowns@,"
       t.tlb_hits t.tlb_misses (100. *. rate) t.tlb_shootdowns);
  if t.bus_delay_ns > 0. then
    Format.fprintf ppf "bus: %d words, %.3f s queueing delay@," t.bus_words
      (t.bus_delay_ns /. 1e9);
  Format.fprintf ppf "placement:";
  List.iter (fun (k, n) -> if n > 0 then Format.fprintf ppf " %s=%d" k n) t.placement;
  Format.fprintf ppf "@,";
  if t.policy_info <> [] then begin
    Format.fprintf ppf "policy:";
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) t.policy_info;
    Format.fprintf ppf "@,"
  end;
  (match t.robustness with
  | None -> ()
  | Some r ->
      Format.fprintf ppf "faults: plan=%s injected=%d drains=%d drained-pages=%d@,"
        (if r.fault_plan = "" then "(none)" else r.fault_plan)
        r.faults_injected r.node_drains r.drained_pages;
      Format.fprintf ppf
        "degradation: rehomed %d, reclaim %d/%d (rescued/retried), spurious %d, oom %d@,"
        r.threads_rehomed r.reclaim_rescues r.reclaim_retries r.spurious_shootdowns
        r.oom_faults;
      Format.fprintf ppf "invariants: %d checks, %d violations@," r.invariant_checks
        r.invariant_violations;
      List.iter (fun v -> Format.fprintf ppf "  VIOLATION: %s@," v) r.first_violations);
  (match t.paging with
  | None -> ()
  | Some p ->
      Format.fprintf ppf "paging: %d page-ins, %d evictions (%d clean, %d dirty)@,"
        p.page_ins p.evictions p.clean_evictions p.dirty_evictions;
      Format.fprintf ppf
        "writeback: %d started, %d completed, %d canceled, %d sync, %d redirtied@,"
        p.writebacks_started p.writebacks_completed p.writebacks_canceled
        p.sync_writebacks p.redirtied;
      Format.fprintf ppf
        "disk: read %.3f s, write %.3f s; resident %d clean, %d dirty, %d in flight@,"
        (p.disk_read_ns /. 1e9) (p.disk_write_ns /. 1e9) p.resident_clean
        p.resident_dirty p.in_writeback);
  (match t.pt with
  | None -> ()
  | Some p ->
      Format.fprintf ppf
        "pt: mode=%s, %d walks (%d levels, %.3f s), %d pte updates, %d shootdowns \
         (%.3f s)@,"
        p.pt_mode p.walks p.walk_levels (p.walk_ns /. 1e9) p.pte_updates
        p.pte_shootdowns (p.shootdown_ns /. 1e9);
      Format.fprintf ppf "pt frames:";
      Array.iteri (fun node n -> Format.fprintf ppf " node%d=%d" node n) p.pt_frames;
      Format.fprintf ppf " global=%d; replicas built %d, dropped %d@,"
        p.global_pt_pages p.replicas_built p.replicas_dropped;
      Format.fprintf ppf "tlb per-cpu:";
      Array.iteri
        (fun cpu (h, m, _) ->
          let total = h + m in
          let rate =
            if total = 0 then 0. else 100. *. float_of_int h /. float_of_int total
          in
          Format.fprintf ppf " cpu%d=%.1f%%(%d/%d)" cpu rate h m)
        p.tlb_per_cpu;
      Format.fprintf ppf "@,");
  (match t.serving with
  | None -> ()
  | Some s ->
      Format.fprintf ppf
        "serving: %d requests, arrival=%s, zipf theta=%.2f, %d clients, %.0f%% writes@,"
        s.requests s.arrival_spec s.zipf_theta s.clients (100. *. s.write_fraction);
      Format.fprintf ppf
        "latency (us): mean %.1f, p50 %d, p95 %d, p99 %d, p99.9 %d, max %d@," s.mean_us
        s.p50_us s.p95_us s.p99_us s.p999_us s.max_us;
      Format.fprintf ppf
        "queueing (us): mean %.1f, p99 %d; span %.3f s, %.0f req/s@," s.queue_mean_us
        s.queue_p99_us (s.span_ns /. 1e9) s.throughput_rps;
      Format.fprintf ppf "served per worker:";
      Array.iteri (fun w n -> Format.fprintf ppf " w%d=%d" w n) s.per_worker_served;
      Format.fprintf ppf "@,");
  (match t.resilience with
  | None -> ()
  | Some r ->
      Format.fprintf ppf "resilience: %s, deadline %d us@," r.res_spec r.deadline_us;
      Format.fprintf ppf
        "outcomes: %d arrived = %d in-deadline + %d timed-out + %d shed; SLO %.1f%%, \
         goodput %.0f req/s@,"
        r.arrived r.served_in_deadline r.timed_out r.shed r.slo_pct r.goodput_rps;
      Format.fprintf ppf "attempt timeouts %d; attempts started:" r.timeouts;
      Array.iteri (fun i n -> Format.fprintf ppf " #%d=%d" (i + 1) n) r.attempts_started;
      Format.fprintf ppf
        "@,hedges %d (%d wins); breaker opens %d, transitions %d; shard failovers %d; \
         conservation violations %d@,"
        r.hedges r.hedge_wins r.breaker_opens r.breaker_transitions r.shard_failovers
        r.conservation_violations);
  (match t.profile with
  | None -> ()
  | Some s ->
      Format.fprintf ppf "profile: attributed %.3f cpu-s (busy %.3f, idle %.3f);"
        (s.Numa_obs.Profile.attributed_ns_total /. 1e9)
        (s.Numa_obs.Profile.busy_ns_total /. 1e9)
        (s.Numa_obs.Profile.idle_ns_total /. 1e9);
      List.iter
        (fun n ->
          if n.Numa_obs.Profile.ns > 0. then
            Format.fprintf ppf " %s=%.3fs" n.Numa_obs.Profile.label
              (n.Numa_obs.Profile.ns /. 1e9))
        s.Numa_obs.Profile.categories;
      Format.fprintf ppf "@,");
  Format.fprintf ppf "per-region:@,";
  List.iter
    (fun (name, c) -> Format.fprintf ppf "  %-24s %a@," name pp_counts c)
    t.per_region;
  Format.fprintf ppf "@]"

(* --- machine-readable export ------------------------------------------- *)

module Json = Numa_obs.Json

let counts_to_json c =
  Json.Obj
    [
      ("local_reads", Json.Int c.local_reads);
      ("local_writes", Json.Int c.local_writes);
      ("global_reads", Json.Int c.global_reads);
      ("global_writes", Json.Int c.global_writes);
      ("remote_reads", Json.Int c.remote_reads);
      ("remote_writes", Json.Int c.remote_writes);
      ("total", Json.Int (total_refs c));
      ("local_fraction", Json.Float (local_fraction c));
    ]

let float_array a = Json.List (Array.to_list (Array.map (fun f -> Json.Float f) a))

let resilience_to_json r =
  Json.Obj
    [
      ("spec", Json.String r.res_spec);
      ("deadline_us", Json.Int r.deadline_us);
      ("arrived", Json.Int r.arrived);
      ("served_in_deadline", Json.Int r.served_in_deadline);
      ("timed_out", Json.Int r.timed_out);
      ("shed", Json.Int r.shed);
      ("timeouts", Json.Int r.timeouts);
      ( "attempts_started",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) r.attempts_started)) );
      ("hedges", Json.Int r.hedges);
      ("hedge_wins", Json.Int r.hedge_wins);
      ("breaker_opens", Json.Int r.breaker_opens);
      ("breaker_transitions", Json.Int r.breaker_transitions);
      ("shard_failovers", Json.Int r.shard_failovers);
      ("goodput_rps", Json.Float r.goodput_rps);
      ("slo_pct", Json.Float r.slo_pct);
      ("conservation_violations", Json.Int r.conservation_violations);
    ]

let to_json t =
  Json.Obj
    ([
      ("policy", Json.String t.policy_name);
      ("n_cpus", Json.Int t.n_cpus);
      ("n_threads", Json.Int t.n_threads);
      ("user_ns_per_cpu", float_array t.user_ns_per_cpu);
      ("system_ns_per_cpu", float_array t.system_ns_per_cpu);
      ("total_user_ns", Json.Float t.total_user_ns);
      ("total_system_ns", Json.Float t.total_system_ns);
      ("elapsed_ns", Json.Float t.elapsed_ns);
      ("refs_all", counts_to_json t.refs_all);
      ("refs_writable_data", counts_to_json t.refs_writable_data);
      ( "per_region",
        Json.Obj (List.map (fun (name, c) -> (name, counts_to_json c)) t.per_region) );
      ("alpha_counted", Json.Float t.alpha_counted);
      ( "numa",
        Json.Obj
          [
            ("enters", Json.Int t.numa_enters);
            ("moves", Json.Int t.numa_moves);
            ("copies_to_local", Json.Int t.numa_copies_to_local);
            ("syncs_to_global", Json.Int t.numa_syncs_to_global);
            ("replicas_flushed", Json.Int t.numa_replicas_flushed);
            ("mappings_dropped", Json.Int t.numa_mappings_dropped);
            ("zero_fills_local", Json.Int t.numa_zero_fills_local);
            ("zero_fills_global", Json.Int t.numa_zero_fills_global);
            ("local_fallbacks", Json.Int t.numa_local_fallbacks);
          ] );
      ( "tlb",
        Json.Obj
          [
            ("hits", Json.Int t.tlb_hits);
            ("misses", Json.Int t.tlb_misses);
            ("shootdowns", Json.Int t.tlb_shootdowns);
            ( "hit_rate",
              Json.Float
                (if t.tlb_hits + t.tlb_misses = 0 then 0.
                 else
                   float_of_int t.tlb_hits
                   /. float_of_int (t.tlb_hits + t.tlb_misses)) );
          ] );
      ("pins", Json.Int t.pins);
      ("placement", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) t.placement));
      ( "policy_info",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) t.policy_info) );
      ("n_events", Json.Int t.n_events);
      ("lock_acquisitions", Json.Int t.lock_acquisitions);
      ("lock_contended_polls", Json.Int t.lock_contended_polls);
      ("bus_words", Json.Int t.bus_words);
      ("bus_delay_ns", Json.Float t.bus_delay_ns);
    ]
    @
    (* Appended, and only on faulted/paranoid/profiled/served runs: clean
       batch reports keep the exact key set (and bytes) of earlier
       releases. *)
    (match t.serving with
    | None -> []
    | Some s ->
        [
          ( "serving",
            Json.Obj
              [
                ("requests", Json.Int s.requests);
                ("arrival", Json.String s.arrival_spec);
                ("zipf_theta", Json.Float s.zipf_theta);
                ("clients", Json.Int s.clients);
                ("write_fraction", Json.Float s.write_fraction);
                ("span_ns", Json.Float s.span_ns);
                ("throughput_rps", Json.Float s.throughput_rps);
                ("mean_us", Json.Float s.mean_us);
                ("p50_us", Json.Int s.p50_us);
                ("p95_us", Json.Int s.p95_us);
                ("p99_us", Json.Int s.p99_us);
                ("p999_us", Json.Int s.p999_us);
                ("max_us", Json.Int s.max_us);
                ("queue_mean_us", Json.Float s.queue_mean_us);
                ("queue_p99_us", Json.Int s.queue_p99_us);
                ( "per_worker_served",
                  Json.List
                    (Array.to_list
                       (Array.map (fun n -> Json.Int n) s.per_worker_served)) );
              ] );
        ])
    @
    (match t.resilience with None -> [] | Some r -> [ ("resilience", resilience_to_json r) ])
    @
    (match t.profile with
    | None -> []
    | Some s -> [ ("profile", Numa_obs.Profile.snapshot_to_json s) ])
    @
    (match t.pt with
    | None -> []
    | Some p ->
        [
          ( "pt",
            Json.Obj
              [
                ("mode", Json.String p.pt_mode);
                ("walks", Json.Int p.walks);
                ("walk_levels", Json.Int p.walk_levels);
                ("walk_ns", Json.Float p.walk_ns);
                ("pte_updates", Json.Int p.pte_updates);
                ("pte_shootdowns", Json.Int p.pte_shootdowns);
                ("shootdown_ns", Json.Float p.shootdown_ns);
                ("replicas_built", Json.Int p.replicas_built);
                ("replicas_dropped", Json.Int p.replicas_dropped);
                ( "pt_frames",
                  Json.List
                    (Array.to_list (Array.map (fun n -> Json.Int n) p.pt_frames)) );
                ("global_pt_pages", Json.Int p.global_pt_pages);
                ( "tlb_per_cpu",
                  Json.List
                    (Array.to_list
                       (Array.map
                          (fun (h, m, s) ->
                            Json.Obj
                              [
                                ("hits", Json.Int h);
                                ("misses", Json.Int m);
                                ("shootdowns", Json.Int s);
                                ( "hit_rate",
                                  Json.Float
                                    (if h + m = 0 then 0.
                                     else float_of_int h /. float_of_int (h + m)) );
                              ])
                          p.tlb_per_cpu)) );
              ] );
        ])
    @
    (match t.paging with
    | None -> []
    | Some p ->
        [
          ( "paging",
            Json.Obj
              [
                ("page_ins", Json.Int p.page_ins);
                ("evictions", Json.Int p.evictions);
                ("clean_evictions", Json.Int p.clean_evictions);
                ("dirty_evictions", Json.Int p.dirty_evictions);
                ("writebacks_started", Json.Int p.writebacks_started);
                ("writebacks_completed", Json.Int p.writebacks_completed);
                ("writebacks_canceled", Json.Int p.writebacks_canceled);
                ("sync_writebacks", Json.Int p.sync_writebacks);
                ("redirtied", Json.Int p.redirtied);
                ("disk_read_ns", Json.Float p.disk_read_ns);
                ("disk_write_ns", Json.Float p.disk_write_ns);
                ("resident_clean", Json.Int p.resident_clean);
                ("resident_dirty", Json.Int p.resident_dirty);
                ("in_writeback", Json.Int p.in_writeback);
              ] );
        ])
    @
    match t.robustness with
    | None -> []
    | Some r ->
        [
          ( "robustness",
            Json.Obj
              [
                ("fault_plan", Json.String r.fault_plan);
                ("faults_injected", Json.Int r.faults_injected);
                ("node_drains", Json.Int r.node_drains);
                ("drained_pages", Json.Int r.drained_pages);
                ("threads_rehomed", Json.Int r.threads_rehomed);
                ("reclaim_retries", Json.Int r.reclaim_retries);
                ("reclaim_rescues", Json.Int r.reclaim_rescues);
                ("spurious_shootdowns", Json.Int r.spurious_shootdowns);
                ("oom_faults", Json.Int r.oom_faults);
                ("invariant_checks", Json.Int r.invariant_checks);
                ("invariant_violations", Json.Int r.invariant_violations);
                ( "first_violations",
                  Json.List (List.map (fun v -> Json.String v) r.first_violations) );
              ] );
        ])
