(** Open-loop served-traffic workload: sharded key-value serving under a
    deterministic synthetic arrival process (Poisson with burst episodes,
    zipfian key popularity, a large multiplexed client population). Fills
    the report's [serving] section with latency percentiles and
    queue-delay attribution; see docs/WORKLOADS.md for the family's
    design contract. *)

val requests_for : float -> int
(** Number of requests a run at the given [--scale] replays. *)

val make :
  ?arrival:Numa_util.Dist.arrival ->
  ?theta:float ->
  ?clients:int ->
  ?rw_mix:float ->
  ?resilience:Resilience.config ->
  unit ->
  App_sig.t
(** A serve app instance. [arrival] is the open-loop process (default
    100k req/s with 4x bursts), [theta] the zipf skew (default 0.9),
    [clients] the logical client population (default 1e6), [rw_mix] the
    fraction of requests that write their object (default 0.1). Raises
    [Invalid_argument] if [rw_mix] is not in [\[0, 1\]], as a nan is
    not; a [theta] that {!Numa_util.Dist.zipf} refuses raises at set-up.

    [resilience] arms the resilient serving tier: per-request deadlines
    (cancellable virtual-time timers), optional retries with jittered
    exponential backoff, an optional hedged second attempt after a
    p99-derived delay, optional per-shard circuit breakers with
    node-fault coupling and shard failover, plus the request-conservation
    sweep and the report's [resilience] section. A config with no
    mechanisms (only a deadline) is observe-only: it serves with the
    plain tier's body and classifies outcomes against the deadline, but
    under a timer that never fires, which adds two zero-time ops per
    request. With one worker per CPU the serving section and CPU times
    are the plain tier's; when workers share a CPU the extra ops change
    the interleaving, and with it the latencies. When omitted, runs are
    byte-identical to earlier releases. *)

val app : App_sig.t
(** The default instance, registered as ["serve"]. *)
