(** General N-node NUMA topology: a per-pair distance (latency) matrix.

    The paper's placement machinery is machine-independent; this module
    makes the machine layer so too. A topology is a set of nodes — each
    CPU node carries a processor plus a pool of local page frames; at most
    one further node is a memory-only board — and two N x N latency
    matrices giving the fetch and store cost of one 32-bit reference from
    any node to memory on any node.

    The ACE of the paper is the two-level special case ({!two_level}):
    CPU nodes with identical latencies plus one shared memory board. A
    Butterfly/RP3-class machine has no board: the shared ("global") level
    is striped round-robin over the CPU nodes' own memories
    ({!global_home}), so a shared reference is fast when the stripe lands
    on the referencing node. Multi-socket machines get distinct near/far
    remote latencies in the matrix.

    The three {!Location.relative} classes survive as reporting buckets
    ({!classify}); precise costs come from the matrix. *)

type t = {
  name : string;  (** short identifier, e.g. ["ace"], ["butterfly"] *)
  cpu_nodes : int;
      (** nodes [0 .. cpu_nodes-1] each carry a CPU and its local memory;
          CPUs and CPU nodes share an index space as on the ACE *)
  mem_node : int option;
      (** index of the memory-only node backing the shared ("global")
          level; [None] stripes the shared level over the CPU nodes *)
  pool_pages : int array;
      (** per-CPU-node local frame pool capacity; length [cpu_nodes] *)
  fetch_ns : float array array;
      (** [fetch_ns.(from).(at)]: one 32-bit fetch issued by node [from]
          to memory on node [at] *)
  store_ns : float array array;  (** likewise for stores *)
  link_words_per_ns : float array array option;
      (** per-directed-link interconnect bandwidth; [None] means a single
          shared bus (the config's [bus_words_per_ns]); an entry of 0
          leaves that link's contention unmodelled *)
}

type place = Node of int | Shared of int
(** A physical residence: memory on a specific node, or logical page
    [lpage] in the shared level (whose node is {!global_home}). *)

val n_nodes : t -> int
val cpu_nodes : t -> int
val mem_node : t -> int option
val name : t -> string

val pool_pages : t -> node:int -> int
(** Local-pool capacity of a CPU node. *)

val fetch_ns : t -> from:int -> at:int -> float
val store_ns : t -> from:int -> at:int -> float

val link_words_per_ns : t -> from:int -> at:int -> float option
(** Modelled bandwidth of the directed link [from -> at], in 32-bit words
    per nanosecond. [None] when the machine has a single shared bus (no
    per-link matrix) or when the matrix leaves this link unmodelled
    (entry 0). Bandwidth-aware policies treat [None] as "no link-pressure
    information". *)

val global_home : t -> lpage:int -> int
(** The node whose memory holds logical page [lpage] when it lives in
    the shared level: the memory board if there is one, otherwise
    [lpage mod cpu_nodes]. *)

val place_node : t -> place -> int

val nearest_cpu : t -> from:int -> ok:(int -> bool) -> int option
(** The CPU node closest to [from] by fetch latency among those passing
    [ok] (lowest index on ties); [None] when none passes. Used to pick a
    re-home target for threads stranded on a node that went offline. *)

val classify : t -> cpu:int -> place -> Location.relative
(** Reporting bucket of a place as seen from [cpu]: the shared level is
    always [In_global]; a node place is [Local_here] or [Remote_local]. *)

val two_level :
  name:string ->
  n_cpus:int ->
  pool_pages:int ->
  local_fetch_ns:float ->
  local_store_ns:float ->
  global_fetch_ns:float ->
  global_store_ns:float ->
  remote_fetch_ns:float ->
  remote_store_ns:float ->
  unit ->
  t
(** The classic ACE shape: [n_cpus] CPU nodes plus a shared memory board,
    with class-uniform latencies (the matrix entries are exactly the six
    scalars, so costs derived from it match the scalar cost model
    bit-for-bit). *)

val validate : t -> (t, string) result
(** Square matrices, positive latencies (diagonals included), pool sizes
    non-negative, [mem_node] consistent with the node count, link
    bandwidths non-negative. *)

val pp : Format.formatter -> t -> unit
