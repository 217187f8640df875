(** Chrome trace-event exporter.

    Records hub events and serializes them in the Chrome
    [chrome://tracing] / Perfetto JSON object format: one instant event
    per hub event, one lane ([tid]) per simulated CPU plus a "protocol"
    lane for placement bookkeeping, metadata events naming every lane.

    Timestamps are virtual nanoseconds written into the [ts] field
    (declared via [displayTimeUnit]/[otherData.clock]); within each lane
    they are clamped to be non-decreasing so every lane is a monotone
    timeline; a nan stamp takes its lane's high-water mark. *)

type t

val create : n_cpus:int -> t

val attach : t -> Hub.t -> unit
(** Subscribe to a hub as sink ["chrome-trace"]. *)

val record : t -> ts:float -> Event.t -> unit
(** Record one event directly (what {!attach} wires up). The clamped stamp
    goes into a float array and the event into an array of events, both
    doubled when full. Each slot of the two costs 2 words, and just after
    a doubling half the slots are empty, so an event costs 2 to 4 words
    beyond the event itself until the trace is dropped. *)

val length : t -> int
(** Events recorded so far (excluding metadata). *)

val protocol_lane : t -> int
(** The lane index of the protocol lane (= [n_cpus]). *)

val save : t -> string -> unit
(** Write the trace to the file as one JSON object and a newline:
    [{"traceEvents":[...],"displayTimeUnit":"ns","otherData":{"clock":
    "virtual-ns","cpus":N,"events":E}}]. The list opens with a
    [process_name] metadata event and one [thread_name] event per lane,
    then holds one object per recorded event in recording order:
    [{"name":...,"cat":"numa","ph":"i","s":"t","ts":...,"pid":1,
    "tid":...,"args":{...}}], with {!Event.name}, the clamped stamp as
    {!Json.add_float} prints it, the lane and {!Event.add_args}. Each event
    is written straight into a 64 KB buffer that is flushed as it fills,
    and no [Json.t] is built. The fixed text is written as whole literals:
    the name goes between literal quotes with no escape scan, since every
    {!Event.name} is a snake_case constant, and each lane's
    [,"pid":1,"tid":N,"args":] text is built once per save. A stamp whose
    bits equal the previous event's reuses its text, kept in one reused
    32-byte [Bytes]. What a save allocates per event is the box of each
    new stamp passed to {!Json.add_float}. *)

val iter : t -> (ts:float -> lane:int -> Event.t -> unit) -> unit
(** Recorded events in recording order, with their clamped stamps. *)
