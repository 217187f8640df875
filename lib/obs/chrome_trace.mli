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
(** Record one event directly (what {!attach} wires up). Slots come in
    chunks of 256: a float array of clamped stamps and an array of events,
    each small enough for the minor heap. The spines that hold the chunks
    double as they fill; no chunk is ever copied. A slot costs 2 words.

    The two per-turn kinds share their blocks. A [Dispatch] whose fields
    equal its lane's last dispatch is stored as that earlier block. A
    [Refs] is looked up in its lane's 64-entry direct-mapped table, keyed
    on its [n], [write], [loc] and [node]: if every field equals the
    stored block's, the stored block is kept, and otherwise the new block
    takes the entry. Every other event is stored as recorded. A trace
    whose dispatches and refs repeat few values thus retains about 2
    words per event, plus one block per distinct value in use. The
    recorded events keep their fields, so {!iter} gives back events
    structurally equal to the ones recorded. *)

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
    32-byte [Bytes]. A dispatch or refs reuses the text after the stamp
    ([,"pid":1,"tid":N,"args":{...}}]) that the last event of its shared
    slot wrote, when the two events' fields are equal; each slot keeps up
    to 128 bytes of text in one arena allocated per save, and a longer
    text is written afresh each time. What a save allocates per event is
    the box of each new stamp passed to {!Json.add_float}. *)

val iter : t -> (ts:float -> lane:int -> Event.t -> unit) -> unit
(** Recorded events in recording order, with their clamped stamps. *)
