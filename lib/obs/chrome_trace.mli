(** Chrome trace-event exporter.

    Records hub events and serializes them in the Chrome
    [chrome://tracing] / Perfetto JSON object format: one instant event
    per hub event, one lane ([tid]) per simulated CPU plus a "protocol"
    lane for placement bookkeeping, metadata events naming every lane.

    Timestamps are virtual nanoseconds written into the [ts] field
    (declared via [displayTimeUnit]/[otherData.clock]); within each lane
    they are clamped to be non-decreasing so every lane is a monotone
    timeline. *)

type t

val create : n_cpus:int -> t

val attach : t -> Hub.t -> unit
(** Subscribe to a hub as sink ["chrome-trace"]. *)

val record : t -> ts:float -> Event.t -> unit
(** Record one event directly (what {!attach} wires up). *)

val length : t -> int
(** Events recorded so far (excluding metadata). *)

val protocol_lane : t -> int
(** The lane index of the protocol lane (= [n_cpus]). *)

val to_json : t -> Json.t

val save : t -> string -> unit
(** Write [Json.to_string (to_json t) ^ "\n"] to the file, streamed one
    event at a time through a fixed-size buffer. *)

val iter : t -> (ts:float -> lane:int -> Event.t -> unit) -> unit
(** Recorded events in recording order, with their clamped stamps. *)
