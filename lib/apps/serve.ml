(** The served-traffic workload family (open-loop NUMA serving).

    A sharded key-value server: [nthreads] shard workers each own the keys
    congruent to their index, requests arrive by a Poisson process with
    burst episodes ({!Numa_util.Dist}), key popularity is zipfian, and a
    large logical client population is multiplexed onto the request
    stream. The trace (arrival instants, keys, clients, write flags) is
    precomputed from the run seed at setup, so a run is exactly
    reproducible; each worker then replays its share open-loop —
    {!Numa_sim.Api.sleep_until} to the next arrival instant, dequeue,
    serve — so a slow policy cannot slow the offered load down, it can
    only grow the queues. Per-request latency lands in a histogram and
    surfaces as the report's [serving] section with queue-delay
    attribution (the tail-latency lens the batch apps cannot provide).

    NUMA-wise the store is deliberately awkward: adjacent keys live on the
    same page but belong to different shards, so pages are read by every
    node and occasionally written (the [rw_mix] fraction), and a shared
    session table adds cross-node write churn. Placement policy therefore
    moves per-request service time, and under open-loop arrivals service
    inflation compounds into queueing — the p99.9 spread the serve-sweep
    experiment measures. *)

open Numa_system
module Api = Numa_sim.Api
module Engine = Numa_sim.Engine
module W = Workload
module Dist = Numa_util.Dist
module Prng = Numa_util.Prng
module Histogram = Numa_util.Histogram
module Region_attr = Numa_vm.Region_attr

let n_keys = 2048
let key_span = 8 (* words read (and possibly written) per request *)
let session_words = 512
let service_compute_ns = 15_000. (* request parsing / marshalling compute *)

let warmup_ns = 100e6
(* Arrivals start 100 ms in: each shard first walks its keys once, so the
   cold-start fault storm (zero fills, first placement decisions) is off
   the clock and no request measures its backlog position behind setup.
   The warmup does not promise a converged placement, though — each shard
   only touches every [nthreads]-th span, so a lazy policy (move-limit
   replicates a page per faulting node, on fault) finishes converging
   under live traffic, and that residual copy storm is part of the tail
   the serving section measures. Lengthening the window does not change
   the numbers; only serving accesses trigger the remaining work. *)

let default_arrival = Dist.arrival ~rate_per_s:100_000. ~burst:4. ()
let default_theta = 0.9
let default_clients = 1_000_000
let default_rw_mix = 0.1

let requests_for scale = max 400 (int_of_float (20_000. *. scale))

let us_of_ns ns = int_of_float ((ns +. 500.) /. 1_000.)

(* --- the resilient serving tier ----------------------------------------- *)

(* Request outcomes of the conservation ledger: every arrived request must
   end as exactly one of in-deadline / timed-out / shed. *)
let o_unresolved = 0
let o_in_deadline = 1
let o_timed_out = 2
let o_shed = 3

(* Circuit-breaker states, per shard worker. *)
let breaker_state_name = function 0 -> "closed" | 1 -> "open" | _ -> "half-open"

(* The resilient tier's per-request policy, run by a worker right after it
   dequeues request [r]: the conservation ledger, attempts of [body] under
   cancellable deadline timers, retries, hedges and per-shard breakers;
   [complete] is the completion bookkeeping shared with the plain tier.
   Returns that policy and the component to register once the workers
   exist (their spawn CPUs are the shards' first homes). *)
let resilient sys ~(cfg : Resilience.config) ~nthreads ~n ~prng ~arrivals ~keys
    ~client_of ~queues ~tids ~cpu ~now ~body ~complete ~last_done ~with_serving =
  let eng = System.engine sys in
  let obs = System.obs sys in
  let profile = System.profile sys in
  let emit ev = if Numa_obs.Hub.enabled obs then Numa_obs.Hub.emit obs ev in
  (* A bare deadline spec is observe-only (SLO accounting around the plain
     tier's service body, under a timer that never fires); any mechanism —
     retry, hedge, breaker — arms a cancellable timer per attempt. *)
  let enforced =
    cfg.Resilience.retry <> None || cfg.Resilience.hedge <> None
    || cfg.Resilience.breaker <> None
  in
  let deadline_ns = cfg.Resilience.deadline_ns in
  let max_attempts =
    match cfg.Resilience.retry with
    | None -> 1
    | Some rc -> rc.Resilience.max_attempts
  in
  let n_slots =
    max_attempts + (match cfg.Resilience.hedge with None -> 0 | Some _ -> 1)
  in
  (* Backoff jitter, precomputed per request at setup so that runtime
     interleaving cannot reshuffle the draws. The stream splits off the
     workload seed after the trace streams, only on resilient runs: plain
     serve draws exactly the streams it always did. *)
  let rp = Prng.split prng in
  let jitters =
    Array.init n (fun _ ->
        Array.init (max 0 (max_attempts - 1)) (fun _ -> Prng.float rp 1.0))
  in
  (* The conservation ledger. Violations are recorded the instant they
     happen (double resolve, resolve-before-arrival); the sweep adds the
     structural checks and is the component's audit. *)
  let arrived = Array.make n false in
  let outcome = Array.make n o_unresolved in
  let cons_violations = ref [] in
  let handled = ref 0 in
  let resolve r o =
    if not arrived.(r) then
      cons_violations :=
        Printf.sprintf "request %d resolved before arriving" r :: !cons_violations;
    if outcome.(r) = o_unresolved then outcome.(r) <- o
    else
      cons_violations :=
        Printf.sprintf "request %d resolved twice (outcome %d, then %d)" r outcome.(r) o
        :: !cons_violations
  in
  let sweep () =
    let viols = ref [] in
    let add s = viols := s :: !viols in
    let inflight = Array.make nthreads 0 in
    (* Every request assigned, every worker through its share. *)
    let finished = !handled = n in
    for r = 0 to n - 1 do
      (if arrived.(r) && outcome.(r) = o_unresolved then begin
         let w = keys.(r) mod nthreads in
         inflight.(w) <- inflight.(w) + 1;
         if inflight.(w) > 1 then
           add
             (Printf.sprintf "worker %d has %d requests in flight (request %d)" w
                inflight.(w) r)
       end);
      if finished then
        if not arrived.(r) then add (Printf.sprintf "request %d lost: never arrived" r)
        else if outcome.(r) = o_unresolved then
          add (Printf.sprintf "request %d lost: arrived but never resolved" r)
    done;
    List.rev_append !cons_violations (List.rev !viols)
  in
  (* resilience counters *)
  let timeouts_ct = ref 0 and hedges_ct = ref 0 and hedge_wins_ct = ref 0 in
  let opens_ct = ref 0 and transitions_ct = ref 0 and failovers_ct = ref 0 in
  let attempts_started = Array.make n_slots 0 in
  let bump_attempt k =
    if k >= 1 && k <= n_slots then attempts_started.(k - 1) <- attempts_started.(k - 1) + 1
  in
  (* Per-shard circuit breakers: 0 = closed, 1 = open, 2 = half-open.
     [br_forced] remembers a node-offline forced open, so the node coming
     back half-opens the breaker immediately. *)
  let br_state = Array.make nthreads 0 in
  let br_fails = Array.make nthreads 0 in
  let br_until = Array.make nthreads 0. in
  let br_forced = Array.make nthreads (-1) in
  let br_goto w s ~until =
    if br_state.(w) <> s then begin
      incr transitions_ct;
      if s = 1 then incr opens_ct;
      emit
        (Numa_obs.Event.Breaker_transition
           {
             worker = w;
             from_state = breaker_state_name br_state.(w);
             to_state = breaker_state_name s;
           })
    end;
    br_state.(w) <- s;
    br_until.(w) <- until
  in
  let breaker_failure w ~now =
    match cfg.Resilience.breaker with
    | None -> ()
    | Some bc -> (
        match br_state.(w) with
        | 2 ->
            (* failed half-open probe: straight back to open *)
            br_fails.(w) <- 0;
            br_goto w 1 ~until:(now +. bc.Resilience.cooldown_ns)
        | 0 ->
            br_fails.(w) <- br_fails.(w) + 1;
            if br_fails.(w) >= bc.Resilience.failures then begin
              br_fails.(w) <- 0;
              br_goto w 1 ~until:(now +. bc.Resilience.cooldown_ns)
            end
        | _ -> ())
  in
  let breaker_success w =
    br_fails.(w) <- 0;
    if br_state.(w) = 2 then br_goto w 0 ~until:0.
  in
  (* Hedge delay: a multiple of the live p99 *service* time (total
     latency is queue-dominated under load and would never fit inside an
     attempt window), falling back to half the attempt budget while the
     histogram is still thin. *)
  let svc_hist = Histogram.create () in
  let hedge_delay (h : Resilience.hedge) ~tau =
    let p99 = Histogram.percentile svc_hist 99. in
    if Histogram.total svc_hist >= 32 && p99 > 0 then
      h.Resilience.factor *. (float_of_int p99 *. 1_000.)
    else tau /. 2.
  in
  (* One service attempt under a cancellable timer; [None] means the
     deadline fired mid-attempt and unwound it. *)
  let attempt_once w r ~until =
    Api.with_deadline ~until_ns:until (fun () ->
        let t_start = now w in
        body r;
        (t_start, now w))
  in
  let settle w r ~abs_deadline ~t_start ~t_done =
    complete w r ~t_start ~t_done;
    Histogram.add svc_hist (us_of_ns (t_done -. t_start));
    if t_done <= abs_deadline then begin
      resolve r o_in_deadline;
      breaker_success w
    end
    else begin
      (* served, but late: an SLO miss for the ledger and the breaker,
         still a completion for the serving section *)
      resolve r o_timed_out;
      breaker_failure w ~now:t_done
    end
  in
  let serve w r =
    arrived.(r) <- true;
    let abs_deadline = arrivals.(r) +. deadline_ns in
    (if not enforced then begin
       bump_attempt 1;
       match attempt_once w r ~until:infinity with
       | Some (t_start, t_done) -> settle w r ~abs_deadline ~t_start ~t_done
       | None -> assert false
     end
     else
       let proceed =
         match cfg.Resilience.breaker with
         | Some _ when br_state.(w) = 1 ->
             if now w < br_until.(w) then begin
               (* open breaker: reject at the door, near-zero cost *)
               resolve r o_shed;
               (match profile with
               | Some pr -> Numa_obs.Profile.note_shed pr
               | None -> ());
               emit
                 (Numa_obs.Event.Request_shed
                    { client = client_of.(r); key = keys.(r); worker = w });
               false
             end
             else begin
               br_goto w 2 ~until:0.;
               true
             end
         | _ -> true
       in
       if proceed then begin
         let normal_attempts = ref 0 in
         let tau = deadline_ns /. float_of_int max_attempts in
         let fail_final () =
           resolve r o_timed_out;
           breaker_failure w ~now:(now w)
         in
         let rec attempt k =
           if now w >= abs_deadline then fail_final ()
           else begin
             incr normal_attempts;
             bump_attempt k;
             let t0 = now w in
             let base_until = Float.min abs_deadline (t0 +. tau) in
             let hedge_until =
               match cfg.Resilience.hedge with
               | Some h when k = 1 ->
                   let d = t0 +. hedge_delay h ~tau in
                   if d < base_until then Some d else None
               | _ -> None
             in
             let until = match hedge_until with Some d -> d | None -> base_until in
             match attempt_once w r ~until with
             | Some (t_start, t_done) -> settle w r ~abs_deadline ~t_start ~t_done
             | None -> (
                 incr timeouts_ct;
                 (match profile with
                 | Some pr -> Numa_obs.Profile.note_timeout pr
                 | None -> ());
                 emit
                   (Numa_obs.Event.Request_timeout
                      { client = client_of.(r); key = keys.(r); cpu = cpu w; attempt = k });
                 match hedge_until with
                 | Some _ -> (
                     (* the first attempt outlived the hedge point: launch
                        the hedged attempt with the whole remaining
                        deadline budget *)
                     incr hedges_ct;
                     bump_attempt (k + 1);
                     emit
                       (Numa_obs.Event.Request_hedged
                          { client = client_of.(r); key = keys.(r); cpu = cpu w });
                     let h0 = now w in
                     match attempt_once w r ~until:abs_deadline with
                     | Some (t_start, t_done) ->
                         (match profile with
                         | Some pr -> Numa_obs.Profile.note_hedge pr (t_done -. h0)
                         | None -> ());
                         if t_done <= abs_deadline then incr hedge_wins_ct;
                         settle w r ~abs_deadline ~t_start ~t_done
                     | None ->
                         (match profile with
                         | Some pr -> Numa_obs.Profile.note_hedge pr (now w -. h0)
                         | None -> ());
                         incr timeouts_ct;
                         (match profile with
                         | Some pr -> Numa_obs.Profile.note_timeout pr
                         | None -> ());
                         emit
                           (Numa_obs.Event.Request_timeout
                              {
                                client = client_of.(r);
                                key = keys.(r);
                                cpu = cpu w;
                                attempt = k + 1;
                              });
                         maybe_retry (k + 2))
                 | None -> maybe_retry (k + 1))
           end
         and maybe_retry k =
           match cfg.Resilience.retry with
           | Some rc when !normal_attempts < rc.Resilience.max_attempts ->
               let tnow = now w in
               let expo =
                 Float.min rc.Resilience.max_backoff_ns
                   (rc.Resilience.base_backoff_ns
                   *. (2. ** float_of_int (!normal_attempts - 1)))
               in
               let u = jitters.(r).(!normal_attempts - 1) in
               let backoff = expo *. (1. +. (rc.Resilience.jitter *. u)) in
               let wake = tnow +. backoff in
               if wake >= abs_deadline then fail_final ()
               else begin
                 (match profile with
                 | Some pr -> Numa_obs.Profile.note_backoff pr backoff
                 | None -> ());
                 emit
                   (Numa_obs.Event.Request_retry
                      {
                        client = client_of.(r);
                        key = keys.(r);
                        cpu = cpu w;
                        attempt = k;
                        backoff_ns = backoff;
                      });
                 Api.sleep_until ~ns:wake;
                 W.read_word queues w;
                 attempt k
               end
           | _ -> fail_final ()
         in
         attempt 1
       end);
    incr handled
  in
  (* Shard failover + breaker coupling to node faults. [home] tracks each
     worker's current home CPU; the system's own rehoming may move the
     engine thread first, but re-spreading by topology distance is the
     app's job. *)
  let on_fault home = function
    | System.Fault_node_offline node ->
        let n_cpus = (System.config sys).Numa_machine.Config.n_cpus in
        let topo = System.topo sys in
        let candidates =
          List.sort
            (fun (da, ca) (db, cb) ->
              if da = db then compare (ca : int) cb else compare (da : float) db)
            (List.filter_map
               (fun c ->
                 if c <> node && c < n_cpus && System.node_online sys ~node:c then
                   Some (Numa_machine.Topo.fetch_ns topo ~from:node ~at:c, c)
                 else None)
               (List.init n_cpus (fun c -> c)))
        in
        let n_cand = List.length candidates in
        let next = ref 0 in
        for w = 0 to nthreads - 1 do
          if home.(w) = node then begin
            (if n_cand > 0 then begin
               (* spread the dead node's shards over online CPUs, nearest
                  first, round-robin *)
               let _, target = List.nth candidates (!next mod n_cand) in
               incr next;
               (* [rehome] returns false when the system's own drain
                  already parked the thread on [target]; the shard's
                  home still moved off the dead node, so the failover
                  counts either way. *)
               ignore (Engine.rehome eng ~tid:tids.(w) ~cpu:target);
               incr failovers_ct;
               emit
                 (Numa_obs.Event.Shard_failover
                    { worker = w; from_cpu = node; to_cpu = target });
               home.(w) <- target
             end);
            match cfg.Resilience.breaker with
            | Some bc ->
                (* force the shard's breaker open: shed instead of paying
                   remote misses into a drained node *)
                br_forced.(w) <- node;
                br_fails.(w) <- 0;
                br_goto w 1 ~until:(Engine.now eng +. bc.Resilience.cooldown_ns)
            | None -> ()
          end
        done
    | System.Fault_node_online node ->
        for w = 0 to nthreads - 1 do
          if br_forced.(w) = node then begin
            br_forced.(w) <- -1;
            if br_state.(w) = 1 then br_goto w 2 ~until:0.
          end
        done
  in
  let resilience () =
    let arrived_ct = Array.fold_left (fun a b -> if b then a + 1 else a) 0 arrived in
    let count v = Array.fold_left (fun a o -> if o = v then a + 1 else a) 0 outcome in
    let in_dl = count o_in_deadline in
    let first = if n > 0 then arrivals.(0) else 0. in
    let span_ns = Float.max 0. (!last_done -. first) in
    {
      Report.res_spec = Resilience.to_string cfg;
      deadline_us = int_of_float (deadline_ns /. 1_000.);
      arrived = arrived_ct;
      served_in_deadline = in_dl;
      timed_out = count o_timed_out;
      shed = count o_shed;
      timeouts = !timeouts_ct;
      attempts_started = Array.copy attempts_started;
      hedges = !hedges_ct;
      hedge_wins = !hedge_wins_ct;
      breaker_opens = !opens_ct;
      breaker_transitions = !transitions_ct;
      shard_failovers = !failovers_ct;
      goodput_rps = (if span_ns > 0. then float_of_int in_dl /. span_ns *. 1e9 else 0.);
      slo_pct =
        (if arrived_ct = 0 then 0. else 100. *. float_of_int in_dl /. float_of_int arrived_ct);
      conservation_violations = List.length (sweep ());
    }
  in
  let component () =
    let home = Array.init nthreads cpu in
    {
      System.on_fault = (if enforced then on_fault home else ignore);
      audit = Some sweep;
      report =
        (fun rep -> { (with_serving rep) with Report.resilience = Some (resilience ()) });
    }
  in
  (serve, component)

let make ?(arrival = default_arrival) ?(theta = default_theta)
    ?(clients = default_clients) ?(rw_mix = default_rw_mix) ?resilience () : App_sig.t =
  if not (rw_mix >= 0. && rw_mix <= 1.) then
    invalid_arg "Serve.make: rw_mix must be in [0, 1]";
  let setup sys (p : App_sig.params) =
    let eng = System.engine sys in
    let obs = System.obs sys in
    let profile = System.profile sys in
    let nthreads = p.App_sig.nthreads in
    let n = requests_for p.App_sig.scale in
    (* The synthetic trace, from the run seed: arrival instants, zipfian
       keys, client ids, write flags. Independent streams per dimension so
       changing e.g. the write mix does not reshuffle the keys. *)
    let prng = Prng.create ~seed:p.App_sig.seed in
    let arrivals = Dist.arrival_times arrival (Prng.split prng) ~n in
    Array.iteri (fun i t -> arrivals.(i) <- t +. warmup_ns) arrivals;
    let z = Dist.zipf ~n:n_keys ~theta in
    let zp = Prng.split prng in
    let keys = Array.init n (fun _ -> Dist.zipf_draw z zp) in
    let cp = Prng.split prng in
    let client_of = Array.init n (fun _ -> Prng.int cp clients) in
    let wp = Prng.split prng in
    let writes = Array.init n (fun _ -> Prng.float wp 1.0 < rw_mix) in
    (* Modulo sharding: worker w owns keys congruent to w, so the zipf head
       spreads over all shards while store pages stay node-shared. *)
    let assigned = Array.make nthreads [] in
    for r = n - 1 downto 0 do
      let w = keys.(r) mod nthreads in
      assigned.(w) <- r :: assigned.(w)
    done;
    let store =
      W.alloc_arr sys ~name:"serve.store"
        ~sharing:Region_attr.Declared_write_shared ~words:(n_keys * key_span) ()
    in
    let sessions =
      W.alloc_arr sys ~name:"serve.sessions"
        ~sharing:Region_attr.Declared_write_shared ~words:session_words ()
    in
    let queues =
      W.alloc_arr sys ~name:"serve.queues"
        ~sharing:Region_attr.Declared_write_shared ~words:(max 1 nthreads) ()
    in
    (* Measurement state, filled in by the workers and read once by the
       component's report after the last thread finishes. *)
    let lat_hist = Histogram.create () in
    let queue_hist = Histogram.create () in
    let lat_sum = ref 0. in
    let queue_sum = ref 0. in
    let served = Array.make nthreads 0 in
    let last_done = ref 0. in
    let tids = Array.make nthreads (-1) in
    let cpu w = Engine.thread_cpu eng ~tid:tids.(w) in
    (* The CPU clock is current virtual time only right after a reference:
       it is stale after [sleep_until]. *)
    let now w = Engine.clock_ns eng ~cpu:(Engine.thread_cpu eng ~tid:tids.(w)) in
    let body r =
      let key = keys.(r) in
      W.read_range store ~lo:(key * key_span) ~n:key_span;
      if writes.(r) then W.write_range store ~lo:(key * key_span) ~n:key_span;
      W.write_word sessions (client_of.(r) mod session_words);
      Api.compute service_compute_ns
    in
    let complete w r ~t_start ~t_done =
      let queue_ns = Float.max 0. (t_start -. arrivals.(r)) in
      let latency_ns = t_done -. arrivals.(r) in
      let service_ns = t_done -. t_start in
      Histogram.add lat_hist (us_of_ns latency_ns);
      Histogram.add queue_hist (us_of_ns queue_ns);
      lat_sum := !lat_sum +. latency_ns;
      queue_sum := !queue_sum +. queue_ns;
      served.(w) <- served.(w) + 1;
      if t_done > !last_done then last_done := t_done;
      (match profile with
      | Some pr -> Numa_obs.Profile.note_request pr ~service_ns ~queue_ns
      | None -> ());
      if Numa_obs.Hub.enabled obs then
        Numa_obs.Hub.emit obs
          (Numa_obs.Event.Request_served
             { client = client_of.(r); key = keys.(r); cpu = cpu w; queue_ns; service_ns })
    in
    let with_serving rep =
      let requests = Histogram.total lat_hist in
      let first = if n > 0 then arrivals.(0) else 0. in
      let span_ns = Float.max 0. (!last_done -. first) in
      let freq = float_of_int requests in
      {
        rep with
        Report.serving =
          Some
            {
              Report.requests;
              arrival_spec = Dist.arrival_to_string arrival;
              zipf_theta = theta;
              clients;
              write_fraction = rw_mix;
              span_ns;
              throughput_rps = (if span_ns > 0. then freq /. span_ns *. 1e9 else 0.);
              mean_us = (if requests = 0 then 0. else !lat_sum /. freq /. 1e3);
              p50_us = Histogram.percentile lat_hist 50.;
              p95_us = Histogram.percentile lat_hist 95.;
              p99_us = Histogram.percentile lat_hist 99.;
              p999_us = Histogram.percentile lat_hist 99.9;
              max_us = Histogram.max_key lat_hist;
              queue_mean_us = (if requests = 0 then 0. else !queue_sum /. freq /. 1e3);
              queue_p99_us = Histogram.percentile queue_hist 99.;
              per_worker_served = Array.copy served;
            };
      }
    in
    (* What a worker does with a request it has dequeued: the plain tier
       serves it once, untimed; the resilient tier adds its policy. *)
    let serve, component =
      match resilience with
      | None ->
          ( (fun w r ->
              let t_start = now w in
              body r;
              complete w r ~t_start ~t_done:(now w)),
            fun () -> { System.on_fault = ignore; audit = None; report = with_serving } )
      | Some cfg ->
          resilient sys ~cfg ~nthreads ~n ~prng ~arrivals ~keys ~client_of ~queues ~tids
            ~cpu ~now ~body ~complete ~last_done ~with_serving
    in
    for w = 0 to nthreads - 1 do
      tids.(w) <-
        System.spawn sys ~name:(Printf.sprintf "serve.%d" w) (fun ~stack_vpage:_ ->
            (* Warmup: fault the shard's working set in before any request
               is on the clock. *)
            let key = ref w in
            while !key < n_keys do
              W.read_range store ~lo:(!key * key_span) ~n:key_span;
              key := !key + nthreads
            done;
            W.read_word queues w;
            List.iter
              (fun r ->
                (* Open-loop: park to the arrival instant (a no-op when the
                   shard is already running behind — the backlog case). The
                   first sleep is also what parks the body at spawn time,
                   before [tids] is filled in. *)
                Api.sleep_until ~ns:arrivals.(r);
                if Numa_obs.Hub.enabled obs then
                  Numa_obs.Hub.emit obs
                    (Numa_obs.Event.Request_arrived
                       { client = client_of.(r); key = keys.(r); worker = w });
                (* Dequeue: touch the shard's queue slot, a real reference
                   that also refreshes the CPU clock. *)
                W.read_word queues w;
                serve w r)
              assigned.(w))
    done;
    System.set_component sys (component ())
  in
  {
    App_sig.name = "serve";
    description = "open-loop sharded KV serving: zipfian keys, bursty Poisson arrivals";
    fetch_dominated = true;
    setup;
  }

let app = make ()
