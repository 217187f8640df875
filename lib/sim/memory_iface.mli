(** What the engine needs from a memory system.

    The engine is generic over this record so it can be tested against a
    flat UMA memory and run in production against the full
    machine/VM/NUMA stack (wired up by [Numa_system]).

    [access] performs [count] back-to-back references by one CPU to one
    page, resolving faults as needed, and returns the value: for reads the
    content observed, for writes the stored value echoed back. It writes
    the virtual time consumed into [cost]: [user_ns] for the references
    themselves and [system_ns] for any kernel work (faults, page copies)
    they triggered. *)

type cost = { mutable user_ns : float; mutable system_ns : float }
(** All floats, so the fields are stored unboxed and filling them
    allocates nothing. *)

type t = {
  access :
    cpu:int ->
    tid:int ->
    vpage:int ->
    access:Numa_machine.Access.t ->
    count:int ->
    value:int ->
    int;
  cost : cost;
      (** the costs of the latest [access]: valid until the next [access],
          which overwrites them *)
}

val flat : Numa_machine.Config.t -> t
(** A uniform-memory-access reference implementation: every reference at
    local speed, no faults, contents in a plain table. Used by the engine's
    own unit tests. *)
