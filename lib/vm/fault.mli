(** The machine-independent page-fault handler.

    Mirrors the Mach resolution path the paper describes: faults occur on
    first reference, on references blocked by the NUMA manager's protection
    tightening, and after mappings are dropped; resolution always ends in a
    [pmap.enter] with the minimum protection needed by the faulting access
    and the maximum allowed by the region, on the faulting CPU. *)

open Numa_machine

type ctx = {
  ops : Pmap_intf.ops;
  config : Config.t;
  topo : Topo.t;  (** [config]'s topology, resolved once: page-ins price from it *)
  sink : Cost_sink.t;
  pool : Lpage_pool.t;
  pageout : Pageout.t option;
      (** when present, pool exhaustion triggers reclamation and one retry
          before the fault fails with [Out_of_memory] *)
  obs : Numa_obs.Hub.t option;
      (** when present, an unrescuable exhaustion emits
          {!Numa_obs.Event.Out_of_memory} before the typed error returns *)
}

type error =
  | No_region  (** the address is unmapped: a segmentation violation *)
  | Protection_violation  (** the access exceeds the region's max protection *)
  | Out_of_memory  (** the logical page pool is exhausted *)

val error_to_string : error -> string

val handle :
  ctx -> Task.t -> cpu:int -> vpage:int -> access:Access.t -> (unit, error) result
(** Resolve one fault: charge the trap cost, look up the region,
    materialise the backing logical page (zero-fill or page-in), and enter
    the mapping. On success the access is guaranteed to find a resident
    mapping with sufficient protection. *)
