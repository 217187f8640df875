(** The event hub: where instrumented layers hand events to sinks.

    Emission contract: producers guard every emission site with
    {!enabled}, so with no sink attached the instrumented hot paths pay a
    single list-is-empty test and never allocate an event. ({!emit}
    re-checks, so an unguarded call is merely slower, not wrong.)

    Timestamps: the hub stamps each event with its {e clock} — virtual
    nanoseconds once an engine has claimed the hub via {!set_clock}, [0.]
    before that. Sinks receive the stamp, not the wall clock, so exports
    line up with the simulation's own notion of time. *)

type t

val create : unit -> t
(** A hub with no sinks and a clock stuck at [0.]. *)

val enabled : t -> bool
(** [true] iff at least one sink is attached. Producers check this before
    constructing an event. *)

val set_clock : t -> (unit -> float) -> unit
(** Install the virtual-time source (the engine's [now]). *)

val now : t -> float

val attach : t -> name:string -> (ts:float -> Event.t -> unit) -> unit
(** Add a sink; sinks run in attachment order on every event. *)

val detach : t -> name:string -> unit

val emit : t -> Event.t -> unit
(** Deliver an event (stamped once) to every sink. No-op without sinks. *)
