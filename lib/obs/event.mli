(** Typed observability events.

    One constructor per interesting thing the stack does: fault
    resolution, policy decisions with their reason, page moves / pins /
    frees, replica lifecycle, zero fills, local-memory fallbacks, batched
    references, bus queueing, lock traffic, scheduler dispatches and
    system calls.

    The library sits {e below} the machine model in the dependency order
    (so every layer can emit), which is why locations and access kinds are
    re-expressed here as plain variants rather than
    [Numa_machine.Location.relative] / [Access.t]. *)

type loc = Local | Global | Remote

val loc_to_string : loc -> string

type t =
  | Fault_resolved of { cpu : int; vpage : int; lpage : int; write : bool; state : string }
      (** a pmap_enter completed; [state] is the page's final placement *)
  | Policy_decision of { lpage : int; cpu : int; global : bool; reason : string }
      (** the placement policy answered LOCAL or GLOBAL, with its reason *)
  | Page_move of { lpage : int; to_node : int; moves : int }
      (** ownership transfer between local memories; [moves] is the page's
          cumulative move count after this move *)
  | Page_pin of { lpage : int; cpu : int; reason : string }
      (** the policy started answering GLOBAL permanently for this page *)
  | Page_unpin of { lpage : int }
      (** reconsideration dropped the pin; next fault decides afresh *)
  | Replica_create of { lpage : int; node : int }
  | Replica_flush of { lpage : int; node : int }
  | Sync_to_global of { lpage : int; node : int }
  | Zero_fill of { lpage : int; node : int option }  (** [None] = global memory *)
  | Local_fallback of { lpage : int; cpu : int }
  | Page_freed of { lpage : int; moves : int }
  | Refs of { cpu : int; n : int; write : bool; loc : loc; node : int }
      (** a batch of [n] resolved memory references; [node] is the
          physical node whose memory served them (the shared board or
          stripe home for [Global]) *)
  | Bus_queued of { cpu : int; words : int; delay_ns : float }
      (** traffic found a backlog on the IPC bus *)
  | Lock_acquired of { lock_id : int; cpu : int; tid : int }
  | Lock_contended of { lock_id : int; cpu : int; tid : int }
  | Lock_released of { lock_id : int; cpu : int; tid : int }
      (** the holder dropped the lock; closes the lane opened by
          [Lock_acquired] in the Chrome trace *)
  | Dispatch of { tid : int; cpu : int; name : string }
  | Syscall of { tid : int; cpu : int; service_ns : float }
  | Tlb_shootdown of { cpu : int; vpage : int; lpage : int }
      (** a protocol action dropped a mapping that a CPU's software TLB was
          caching; the stale translation was precisely invalidated *)
  | Thread_migrated of { tid : int; from_cpu : int; to_cpu : int }
      (** the coordinated thread+page policy re-homed a thread toward the
          node serving its pinned pages (Phoenix-style; off by default) *)
  | Reconsider_scan of { expired : int }
      (** a periodic reconsideration scan ran and found [expired] pins
          whose hold had lapsed (each also gets its own [Page_unpin]) *)
  | Fault_injected of { kind : string; detail : string }
      (** the fault injector applied a scheduled action; [kind] is the
          plan-entry tag (e.g. ["node-offline"]) *)
  | Node_offline of { node : int }
      (** the node's local memory is gone: pool refuses allocation *)
  | Node_online of { node : int }  (** the node's (empty) pool is back *)
  | Node_drained of { node : int; pages : int; threads : int }
      (** degradation path: [pages] local copies were synced/flushed off
          the dying node and [threads] runnable threads re-homed *)
  | Link_degraded of { src : int; dst : int; factor : float }
      (** the directed link lost bandwidth by [factor] ([factor = 1]
          marks restoration at the end of a degrade window) *)
  | Invariant_checked of { violations : int }
      (** the protocol invariant checker ran over the whole directory *)
  | Out_of_memory of { cpu : int; vpage : int }
      (** a fault could not materialise its page: the logical-page pool
          was exhausted and page-out freed nothing *)
  | Page_in of { lpage : int }
      (** the page's content was read in from the modeled backing store
          (its paging entry went Reading -> Clean) *)
  | Page_evicted of { lpage : int; dirty : bool }
      (** the pageout daemon evicted the page; [dirty] means it paid a
          synchronous writeback first *)
  | Writeback_started of { lpage : int }
      (** the async writeback daemon started cleaning a Dirty entry *)
  | Writeback_done of { lpage : int; redirtied : bool }
      (** an async writeback completed; [redirtied] means a store landed
          while the disk write was in flight, so the entry stays Dirty *)
  | Pt_walk of { cpu : int; vpage : int; lpage : int; levels : int; ns : float }
      (** a software-TLB miss paid a multi-level page-table walk; [ns] is
          the summed per-level latency by node distance *)
  | Pt_shootdown of { cpu : int; vpage : int; lpage : int; node : int }
      (** a PTE update was propagated into node [node]'s replica page
          table (numaPTE-style shootdown on move / unmap / protect) *)
  | Pt_replica_create of { pmap : int; node : int; frames : int }
      (** a full per-node page-table replica was materialised (Mitosis) *)
  | Pt_replica_drop of { pmap : int; node : int }
      (** a per-node replica was torn down (node offline / evacuation) *)
  | Request_arrived of { client : int; key : int; worker : int }
      (** an open-loop serving request entered its shard worker's queue *)
  | Request_served of {
      client : int;
      key : int;
      cpu : int;
      queue_ns : float;
      service_ns : float;
    }
      (** the request completed on [cpu]; latency = queue + service *)
  | Request_timeout of { client : int; key : int; cpu : int; attempt : int }
      (** the request's deadline fired and cancelled attempt [attempt]
          (1-based) at a chunk boundary *)
  | Request_retry of { client : int; key : int; cpu : int; attempt : int; backoff_ns : float }
      (** attempt [attempt] (>= 2) is starting after a jittered
          exponential backoff of [backoff_ns] *)
  | Request_hedged of { client : int; key : int; cpu : int }
      (** the first attempt outlived the hedge delay; a hedged second
          attempt is starting with the remaining deadline budget *)
  | Request_shed of { client : int; key : int; worker : int }
      (** worker [worker]'s open circuit breaker rejected the request
          without serving it *)
  | Breaker_transition of { worker : int; from_state : string; to_state : string }
      (** a per-shard circuit breaker changed state
          (closed/open/half-open) *)
  | Shard_failover of { worker : int; from_cpu : int; to_cpu : int }
      (** the serving app re-homed a shard worker off a dead node to the
          nearest online one *)

val name : t -> string
(** Stable snake_case tag, used as the Chrome trace event name. *)

val lane : t -> int
(** Which Chrome-trace lane the event renders on: the CPU for things that
    happen on a processor, [-1] (the protocol lane) for placement
    bookkeeping. *)

val lpage : t -> int option
(** The logical page the event concerns, for per-page audits. *)

val add_args : Buffer.t -> t -> unit
(** Append the payload fields as one JSON object, the trace exporter's
    ["args"]. Each field is its literal key text, such as [{"cpu":] or
    [,"vpage":], then its value. It builds no {!Json.t} and allocates
    nothing, unless {!Json.add_float} hands a float field to printf's C
    primitive, which {!Json.float_repr} says when it does. *)

val describe : t -> string
(** One-line human-readable rendering, used by the page audit. *)
