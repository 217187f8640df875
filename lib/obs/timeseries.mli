(** Epoch-bucketed time-series sampler.

    Buckets hub events into fixed virtual-time epochs (default 10 ms) and
    accumulates, per epoch: reference counts by location and the locality
    fraction alpha(t), bus words and queueing delay, page moves / pins /
    copies / flushes / syncs / fallbacks, a live-replica gauge, and a
    summary (mean, p99 via {!Numa_util.Histogram.percentile}) of the
    cumulative move counts carried by that epoch's move events.

    Rows come out as CSV for plotting ([numa_sim run --metrics-out]). *)

type row = {
  epoch : int;
  t_start_ns : float;
  refs : int;
  local_refs : int;
  global_refs : int;
  remote_refs : int;
  alpha : float;  (** local_refs / refs, 0 for an empty epoch *)
  bus_words : int;
  bus_delay_ns : float;
  moves : int;
  pins : int;
  copies : int;
  flushes : int;
  syncs : int;
  fallbacks : int;
  live_replicas : int;  (** replica gauge at the epoch's last sample *)
  move_mean : float;
  move_p99 : int;
}

type t

val default_epoch_ns : float

val create : ?epoch_ns:float -> unit -> t

val attach : t -> Hub.t -> unit
(** Subscribe to a hub as sink ["timeseries"]. *)

val record : t -> ts:float -> Event.t -> unit

val rows : t -> row list
(** Non-empty epochs in increasing order. *)

val csv_header : string
val to_csv : t -> string
val save_csv : t -> string -> unit
