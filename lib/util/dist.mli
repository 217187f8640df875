(** Deterministic samplers for synthetic request traffic.

    The served-traffic workload family needs three stochastic shapes the
    batch kernels never did: zipfian key popularity (hotspots), Poisson
    arrivals (open-loop load), and burst episodes (transient overload).
    All three draw from an explicit {!Prng.t}, so a trace generated from a
    seed is exactly reproducible — the same determinism contract every
    other stochastic choice in the simulator obeys. *)

(** {1 Zipfian keys} *)

type zipf

val zipf : n:int -> theta:float -> zipf
(** A zipfian sampler over keys [0 .. n-1] with skew [theta >= 0]:
    key [i] is drawn with probability proportional to [1/(i+1)^theta].
    [theta = 0] is the uniform distribution; [theta ~ 1] is classic web
    traffic; beyond 1 the head keys dominate outright. The cumulative
    table is precomputed, with a 4,096-entry guide table into it.
    Raises [Invalid_argument] if [n <= 0] or [theta] is not [>= 0], as a
    nan is not. *)

val zipf_draw : zipf -> Prng.t -> int
(** One key, by inverse-CDF lookup on a uniform draw [u]: the smallest
    key whose cumulative probability exceeds [u]. The guide table gives
    the smallest such key for [u]'s 1/4096th of [\[0, 1)], and the draw
    scans forward from it, which is what a binary search would find. *)

val zipf_mass : zipf -> int -> float
(** The probability of key [i] (for tests; [Invalid_argument] out of
    range). *)

(** {1 Exponential inter-arrival gaps} *)

val exponential : Prng.t -> rate_per_s:float -> float
(** One inter-arrival gap in nanoseconds, exponentially distributed with
    the given mean rate (arrivals per second of simulated time).
    Raises [Invalid_argument] if the rate is not positive (or is nan). *)

(** {1 The arrival process} *)

type arrival = {
  rate_per_s : float;  (** baseline mean arrival rate *)
  burst : float;  (** rate multiplier inside burst episodes (>= 1) *)
  burst_every_ns : float;  (** episode period *)
  burst_len_ns : float;  (** episode length, at the start of each period *)
}

val arrival : ?burst_every_ns:float -> ?burst_len_ns:float -> rate_per_s:float -> burst:float -> unit -> arrival
(** An open-loop arrival process: Poisson at [rate_per_s], except that the
    first [burst_len_ns] (default 10 ms) of every [burst_every_ns]
    (default 60 ms) window runs at [rate_per_s *. burst]. [burst = 1] is
    plain Poisson. Raises [Invalid_argument] unless the rate is positive,
    [burst >= 1] and the episode is positive and shorter than its window,
    so a nan in any of them raises. *)

val arrival_of_string : string -> (arrival, string) result
(** Parse the CLI syntax [RATE[:BURST]] — e.g. ["120000"] or
    ["120000:4"] — at the default episode geometry. An [Error] names a
    rate that is not positive or a burst that is not [>= 1], nan
    included. *)

val arrival_to_string : arrival -> string
(** The canonical [RATE:BURST] form. *)

val arrival_times : arrival -> Prng.t -> n:int -> float array
(** The first [n] arrival instants (nanoseconds of simulated time,
    strictly increasing) of the process: gaps are exponential at the rate
    in force at the {e previous} arrival, so episodes compress the stream
    by the burst factor. Deterministic in the Prng state. *)
