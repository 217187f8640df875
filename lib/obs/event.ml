type loc = Local | Global | Remote

let loc_to_string = function Local -> "local" | Global -> "global" | Remote -> "remote"

type t =
  | Fault_resolved of { cpu : int; vpage : int; lpage : int; write : bool; state : string }
  | Policy_decision of { lpage : int; cpu : int; global : bool; reason : string }
  | Page_move of { lpage : int; to_node : int; moves : int }
  | Page_pin of { lpage : int; cpu : int; reason : string }
  | Page_unpin of { lpage : int }
  | Replica_create of { lpage : int; node : int }
  | Replica_flush of { lpage : int; node : int }
  | Sync_to_global of { lpage : int; node : int }
  | Zero_fill of { lpage : int; node : int option }
  | Local_fallback of { lpage : int; cpu : int }
  | Page_freed of { lpage : int; moves : int }
  | Refs of { cpu : int; n : int; write : bool; loc : loc; node : int }
  | Bus_queued of { cpu : int; words : int; delay_ns : float }
  | Lock_acquired of { lock_id : int; cpu : int; tid : int }
  | Lock_contended of { lock_id : int; cpu : int; tid : int }
  | Lock_released of { lock_id : int; cpu : int; tid : int }
  | Dispatch of { tid : int; cpu : int; name : string }
  | Syscall of { tid : int; cpu : int; service_ns : float }
  | Tlb_shootdown of { cpu : int; vpage : int; lpage : int }
  | Thread_migrated of { tid : int; from_cpu : int; to_cpu : int }
  | Reconsider_scan of { expired : int }
  | Fault_injected of { kind : string; detail : string }
  | Node_offline of { node : int }
  | Node_online of { node : int }
  | Node_drained of { node : int; pages : int; threads : int }
  | Link_degraded of { src : int; dst : int; factor : float }
  | Invariant_checked of { violations : int }
  | Out_of_memory of { cpu : int; vpage : int }
  | Page_in of { lpage : int }
  | Page_evicted of { lpage : int; dirty : bool }
  | Writeback_started of { lpage : int }
  | Writeback_done of { lpage : int; redirtied : bool }
  | Pt_walk of { cpu : int; vpage : int; lpage : int; levels : int; ns : float }
  | Pt_shootdown of { cpu : int; vpage : int; lpage : int; node : int }
  | Pt_replica_create of { pmap : int; node : int; frames : int }
  | Pt_replica_drop of { pmap : int; node : int }
  | Request_arrived of { client : int; key : int; worker : int }
  | Request_served of {
      client : int;
      key : int;
      cpu : int;
      queue_ns : float;
      service_ns : float;
    }
  | Request_timeout of { client : int; key : int; cpu : int; attempt : int }
  | Request_retry of { client : int; key : int; cpu : int; attempt : int; backoff_ns : float }
  | Request_hedged of { client : int; key : int; cpu : int }
  | Request_shed of { client : int; key : int; worker : int }
  | Breaker_transition of { worker : int; from_state : string; to_state : string }
  | Shard_failover of { worker : int; from_cpu : int; to_cpu : int }

let name = function
  | Fault_resolved _ -> "fault_resolved"
  | Policy_decision _ -> "policy_decision"
  | Page_move _ -> "page_move"
  | Page_pin _ -> "page_pin"
  | Page_unpin _ -> "page_unpin"
  | Replica_create _ -> "replica_create"
  | Replica_flush _ -> "replica_flush"
  | Sync_to_global _ -> "sync_to_global"
  | Zero_fill _ -> "zero_fill"
  | Local_fallback _ -> "local_fallback"
  | Page_freed _ -> "page_freed"
  | Refs _ -> "refs"
  | Bus_queued _ -> "bus_queued"
  | Lock_acquired _ -> "lock_acquired"
  | Lock_contended _ -> "lock_contended"
  | Lock_released _ -> "lock_released"
  | Dispatch _ -> "dispatch"
  | Syscall _ -> "syscall"
  | Tlb_shootdown _ -> "tlb_shootdown"
  | Thread_migrated _ -> "thread_migrated"
  | Reconsider_scan _ -> "reconsider_scan"
  | Fault_injected _ -> "fault_injected"
  | Node_offline _ -> "node_offline"
  | Node_online _ -> "node_online"
  | Node_drained _ -> "node_drained"
  | Link_degraded _ -> "link_degraded"
  | Invariant_checked _ -> "invariant_checked"
  | Out_of_memory _ -> "out_of_memory"
  | Page_in _ -> "page_in"
  | Page_evicted _ -> "page_evicted"
  | Writeback_started _ -> "writeback_started"
  | Writeback_done _ -> "writeback_done"
  | Pt_walk _ -> "pt_walk"
  | Pt_shootdown _ -> "pt_shootdown"
  | Pt_replica_create _ -> "pt_replica_create"
  | Pt_replica_drop _ -> "pt_replica_drop"
  | Request_arrived _ -> "request_arrived"
  | Request_served _ -> "request_served"
  | Request_timeout _ -> "request_timeout"
  | Request_retry _ -> "request_retry"
  | Request_hedged _ -> "request_hedged"
  | Request_shed _ -> "request_shed"
  | Breaker_transition _ -> "breaker_transition"
  | Shard_failover _ -> "shard_failover"

(* Placement-protocol bookkeeping renders on its own lane (-1); everything
   that happens "on" a processor renders on that processor's lane. *)
let lane = function
  | Page_move _ | Page_pin _ | Page_unpin _ | Replica_create _ | Replica_flush _
  | Sync_to_global _ | Zero_fill _ | Page_freed _ | Reconsider_scan _
  | Fault_injected _ | Node_offline _ | Node_online _ | Node_drained _
  | Link_degraded _ | Invariant_checked _ | Page_in _ | Page_evicted _
  | Writeback_started _ | Writeback_done _ | Pt_replica_create _ | Pt_replica_drop _
  | Request_arrived _ | Request_shed _ | Breaker_transition _ ->
      -1
  | Fault_resolved { cpu; _ }
  | Policy_decision { cpu; _ }
  | Local_fallback { cpu; _ }
  | Refs { cpu; _ }
  | Bus_queued { cpu; _ }
  | Lock_acquired { cpu; _ }
  | Lock_contended { cpu; _ }
  | Lock_released { cpu; _ }
  | Dispatch { cpu; _ }
  | Syscall { cpu; _ }
  | Tlb_shootdown { cpu; _ }
  | Out_of_memory { cpu; _ }
  | Pt_walk { cpu; _ }
  | Pt_shootdown { cpu; _ }
  | Request_served { cpu; _ }
  | Request_timeout { cpu; _ }
  | Request_retry { cpu; _ }
  | Request_hedged { cpu; _ } ->
      cpu
  | Thread_migrated { to_cpu; _ } | Shard_failover { to_cpu; _ } -> to_cpu

let lpage = function
  | Fault_resolved { lpage; _ }
  | Policy_decision { lpage; _ }
  | Page_move { lpage; _ }
  | Page_pin { lpage; _ }
  | Page_unpin { lpage; _ }
  | Replica_create { lpage; _ }
  | Replica_flush { lpage; _ }
  | Sync_to_global { lpage; _ }
  | Zero_fill { lpage; _ }
  | Local_fallback { lpage; _ }
  | Page_freed { lpage; _ }
  | Tlb_shootdown { lpage; _ }
  | Page_in { lpage }
  | Page_evicted { lpage; _ }
  | Writeback_started { lpage }
  | Writeback_done { lpage; _ }
  | Pt_walk { lpage; _ }
  | Pt_shootdown { lpage; _ } ->
      Some lpage
  | Refs _ | Bus_queued _ | Lock_acquired _ | Lock_contended _ | Lock_released _
  | Dispatch _ | Syscall _ | Thread_migrated _ | Reconsider_scan _ | Fault_injected _
  | Node_offline _ | Node_online _ | Node_drained _ | Link_degraded _
  | Invariant_checked _ | Out_of_memory _ | Pt_replica_create _ | Pt_replica_drop _
  | Request_arrived _ | Request_served _ | Request_timeout _ | Request_retry _
  | Request_hedged _ | Request_shed _ | Breaker_transition _ | Shard_failover _ ->
      None

(* Field writers for [add_args]: [k] is the field's literal key text with
   the ['{'] that opens the object or the [','] before a later field, such
   as [{"cpu":] or [,"vpage":]. They are top-level functions, so a call
   allocates nothing. *)
let int b k v = Buffer.add_string b k; Json.add_int b v
let float b k v = Buffer.add_string b k; Json.add_float b v
let str b k v = Buffer.add_string b k; Json.add_string b v
let bool b k v =
  Buffer.add_string b k;
  Buffer.add_string b (if v then "true" else "false")

let add_args b ev =
  (match ev with
  | Fault_resolved { cpu; vpage; lpage; write; state } ->
      int b {|{"cpu":|} cpu; int b {|,"vpage":|} vpage; int b {|,"lpage":|} lpage;
      bool b {|,"write":|} write; str b {|,"state":|} state
  | Policy_decision { lpage; cpu; global; reason } ->
      int b {|{"lpage":|} lpage; int b {|,"cpu":|} cpu;
      str b {|,"decision":|} (if global then "GLOBAL" else "LOCAL");
      str b {|,"reason":|} reason
  | Page_move { lpage; to_node; moves } ->
      int b {|{"lpage":|} lpage; int b {|,"to_node":|} to_node; int b {|,"moves":|} moves
  | Page_pin { lpage; cpu; reason } ->
      int b {|{"lpage":|} lpage; int b {|,"cpu":|} cpu; str b {|,"reason":|} reason
  | Page_unpin { lpage } -> int b {|{"lpage":|} lpage
  | Replica_create { lpage; node } | Replica_flush { lpage; node }
  | Sync_to_global { lpage; node } ->
      int b {|{"lpage":|} lpage; int b {|,"node":|} node
  | Zero_fill { lpage; node } -> (
      int b {|{"lpage":|} lpage;
      match node with Some n -> int b {|,"node":|} n | None -> str b {|,"node":|} "global")
  | Local_fallback { lpage; cpu } -> int b {|{"lpage":|} lpage; int b {|,"cpu":|} cpu
  | Page_freed { lpage; moves } -> int b {|{"lpage":|} lpage; int b {|,"moves":|} moves
  | Refs { cpu; n; write; loc; node } ->
      int b {|{"cpu":|} cpu; int b {|,"n":|} n; bool b {|,"write":|} write;
      str b {|,"loc":|} (loc_to_string loc); int b {|,"node":|} node
  | Bus_queued { cpu; words; delay_ns } ->
      int b {|{"cpu":|} cpu; int b {|,"words":|} words;
      float b {|,"delay_ns":|} delay_ns
  | Lock_acquired { lock_id; cpu; tid }
  | Lock_contended { lock_id; cpu; tid }
  | Lock_released { lock_id; cpu; tid } ->
      int b {|{"lock":|} lock_id; int b {|,"cpu":|} cpu; int b {|,"tid":|} tid
  | Dispatch { tid; cpu; name } ->
      int b {|{"tid":|} tid; int b {|,"cpu":|} cpu; str b {|,"thread":|} name
  | Syscall { tid; cpu; service_ns } ->
      int b {|{"tid":|} tid; int b {|,"cpu":|} cpu;
      float b {|,"service_ns":|} service_ns
  | Tlb_shootdown { cpu; vpage; lpage } ->
      int b {|{"cpu":|} cpu; int b {|,"vpage":|} vpage; int b {|,"lpage":|} lpage
  | Thread_migrated { tid; from_cpu; to_cpu } ->
      int b {|{"tid":|} tid; int b {|,"from_cpu":|} from_cpu; int b {|,"to_cpu":|} to_cpu
  | Reconsider_scan { expired } -> int b {|{"expired":|} expired
  | Fault_injected { kind; detail } -> str b {|{"kind":|} kind; str b {|,"detail":|} detail
  | Node_offline { node } | Node_online { node } -> int b {|{"node":|} node
  | Node_drained { node; pages; threads } ->
      int b {|{"node":|} node; int b {|,"pages":|} pages; int b {|,"threads":|} threads
  | Link_degraded { src; dst; factor } ->
      int b {|{"src":|} src; int b {|,"dst":|} dst; float b {|,"factor":|} factor
  | Invariant_checked { violations } -> int b {|{"violations":|} violations
  | Out_of_memory { cpu; vpage } -> int b {|{"cpu":|} cpu; int b {|,"vpage":|} vpage
  | Page_in { lpage } -> int b {|{"lpage":|} lpage
  | Page_evicted { lpage; dirty } -> int b {|{"lpage":|} lpage; bool b {|,"dirty":|} dirty
  | Writeback_started { lpage } -> int b {|{"lpage":|} lpage
  | Writeback_done { lpage; redirtied } ->
      int b {|{"lpage":|} lpage; bool b {|,"redirtied":|} redirtied
  | Pt_walk { cpu; vpage; lpage; levels; ns } ->
      int b {|{"cpu":|} cpu; int b {|,"vpage":|} vpage; int b {|,"lpage":|} lpage;
      int b {|,"levels":|} levels; float b {|,"ns":|} ns
  | Pt_shootdown { cpu; vpage; lpage; node } ->
      int b {|{"cpu":|} cpu; int b {|,"vpage":|} vpage; int b {|,"lpage":|} lpage;
      int b {|,"node":|} node
  | Pt_replica_create { pmap; node; frames } ->
      int b {|{"pmap":|} pmap; int b {|,"node":|} node; int b {|,"frames":|} frames
  | Pt_replica_drop { pmap; node } -> int b {|{"pmap":|} pmap; int b {|,"node":|} node
  | Request_arrived { client; key; worker } ->
      int b {|{"client":|} client; int b {|,"key":|} key; int b {|,"worker":|} worker
  | Request_served { client; key; cpu; queue_ns; service_ns } ->
      int b {|{"client":|} client; int b {|,"key":|} key; int b {|,"cpu":|} cpu;
      float b {|,"queue_ns":|} queue_ns; float b {|,"service_ns":|} service_ns
  | Request_timeout { client; key; cpu; attempt } ->
      int b {|{"client":|} client; int b {|,"key":|} key; int b {|,"cpu":|} cpu;
      int b {|,"attempt":|} attempt
  | Request_retry { client; key; cpu; attempt; backoff_ns } ->
      int b {|{"client":|} client; int b {|,"key":|} key; int b {|,"cpu":|} cpu;
      int b {|,"attempt":|} attempt; float b {|,"backoff_ns":|} backoff_ns
  | Request_hedged { client; key; cpu } ->
      int b {|{"client":|} client; int b {|,"key":|} key; int b {|,"cpu":|} cpu
  | Request_shed { client; key; worker } ->
      int b {|{"client":|} client; int b {|,"key":|} key; int b {|,"worker":|} worker
  | Breaker_transition { worker; from_state; to_state } ->
      int b {|{"worker":|} worker; str b {|,"from":|} from_state;
      str b {|,"to":|} to_state
  | Shard_failover { worker; from_cpu; to_cpu } ->
      int b {|{"worker":|} worker; int b {|,"from_cpu":|} from_cpu;
      int b {|,"to_cpu":|} to_cpu);
  Buffer.add_char b '}'

let describe ev =
  match ev with
  | Fault_resolved { cpu; vpage; lpage; write; state } ->
      Printf.sprintf "fault resolved on cpu %d: vpage %d -> lpage %d (%s), state %s" cpu
        vpage lpage
        (if write then "write" else "read")
        state
  | Policy_decision { cpu; global; reason; _ } ->
      Printf.sprintf "policy for cpu %d: %s (%s)" cpu
        (if global then "GLOBAL" else "LOCAL")
        reason
  | Page_move { to_node; moves; _ } ->
      Printf.sprintf "moved to node %d's local memory (move #%d)" to_node moves
  | Page_pin { reason; _ } -> Printf.sprintf "PINNED in global memory: %s" reason
  | Page_unpin _ -> "pin expired: mappings dropped for reconsideration"
  | Replica_create { node; _ } -> Printf.sprintf "replica created in node %d" node
  | Replica_flush { node; _ } -> Printf.sprintf "replica flushed from node %d" node
  | Sync_to_global { node; _ } ->
      Printf.sprintf "dirty copy on node %d synced back to global" node
  | Zero_fill { node = Some n; _ } ->
      Printf.sprintf "zero-filled directly into node %d's local memory" n
  | Zero_fill { node = None; _ } -> "zero-filled in global memory"
  | Local_fallback { cpu; _ } ->
      Printf.sprintf "LOCAL demoted to GLOBAL: node %d's local memory full" cpu
  | Page_freed { moves; _ } ->
      Printf.sprintf "freed (placement history reset after %d moves)" moves
  | Refs { cpu; n; write; loc; node } ->
      Printf.sprintf "%d %s refs from cpu %d (%s, node %d)" n
        (if write then "store" else "fetch")
        cpu (loc_to_string loc) node
  | Bus_queued { words; delay_ns; _ } ->
      Printf.sprintf "bus backlog: %d words queued %.0f ns" words delay_ns
  | Lock_acquired { lock_id; tid; _ } ->
      Printf.sprintf "lock %d acquired by tid %d" lock_id tid
  | Lock_contended { lock_id; tid; _ } ->
      Printf.sprintf "lock %d contended (tid %d spinning)" lock_id tid
  | Lock_released { lock_id; tid; _ } ->
      Printf.sprintf "lock %d released by tid %d" lock_id tid
  | Dispatch { tid; cpu; name } ->
      Printf.sprintf "thread %d (%s) dispatched on cpu %d" tid name cpu
  | Syscall { tid; service_ns; _ } ->
      Printf.sprintf "syscall by tid %d (%.0f ns service)" tid service_ns
  | Tlb_shootdown { cpu; vpage; _ } ->
      Printf.sprintf "software-TLB entry for vpage %d shot down on cpu %d" vpage cpu
  | Thread_migrated { tid; from_cpu; to_cpu } ->
      Printf.sprintf "thread %d re-homed from cpu %d to cpu %d (toward its pinned pages)"
        tid from_cpu to_cpu
  | Reconsider_scan { expired } ->
      Printf.sprintf "reconsideration scan: %d pin%s expired" expired
        (if expired = 1 then "" else "s")
  | Fault_injected { kind; detail } -> Printf.sprintf "fault injected: %s (%s)" kind detail
  | Node_offline { node } -> Printf.sprintf "node %d local memory OFFLINE" node
  | Node_online { node } -> Printf.sprintf "node %d local memory back online" node
  | Node_drained { node; pages; threads } ->
      Printf.sprintf "node %d drained: %d page cop%s flushed, %d thread%s re-homed" node
        pages
        (if pages = 1 then "y" else "ies")
        threads
        (if threads = 1 then "" else "s")
  | Link_degraded { src; dst; factor } ->
      Printf.sprintf "link %d->%d bandwidth divided by %g" src dst factor
  | Invariant_checked { violations } ->
      if violations = 0 then "invariant check: coherent"
      else Printf.sprintf "invariant check: %d VIOLATION%s" violations
          (if violations = 1 then "" else "S")
  | Out_of_memory { cpu; vpage } ->
      Printf.sprintf "out of memory: cpu %d faulting on vpage %d found no frame even after \
                      page-out" cpu vpage
  | Page_in { lpage } -> Printf.sprintf "lpage %d read in from backing store" lpage
  | Page_evicted { lpage; dirty } ->
      Printf.sprintf "lpage %d evicted to backing store (%s)" lpage
        (if dirty then "dirty: synchronous writeback" else "clean: dropped")
  | Writeback_started { lpage } ->
      Printf.sprintf "async writeback of lpage %d started" lpage
  | Writeback_done { lpage; redirtied } ->
      Printf.sprintf "async writeback of lpage %d done%s" lpage
        (if redirtied then " (redirtied during writeback: still dirty)" else "")
  | Pt_walk { cpu; vpage; levels; ns; _ } ->
      Printf.sprintf "page-table walk on cpu %d for vpage %d: %d level%s, %.0f ns" cpu
        vpage levels
        (if levels = 1 then "" else "s")
        ns
  | Pt_shootdown { cpu; vpage; node; _ } ->
      Printf.sprintf "replica PTE for vpage %d shot down in node %d's table (by cpu %d)"
        vpage node cpu
  | Pt_replica_create { node; frames; _ } ->
      Printf.sprintf "page-table replica built in node %d (%d frame%s)" node frames
        (if frames = 1 then "" else "s")
  | Pt_replica_drop { node; _ } ->
      Printf.sprintf "page-table replica dropped from node %d" node
  | Request_arrived { client; key; worker } ->
      Printf.sprintf "request from client %d for key %d enqueued to worker %d" client key
        worker
  | Request_served { client; key; queue_ns; service_ns; _ } ->
      Printf.sprintf "request from client %d for key %d served (%.0f ns queued, %.0f ns \
                      service)" client key queue_ns service_ns
  | Request_timeout { client; key; attempt; _ } ->
      Printf.sprintf "request from client %d for key %d timed out (attempt %d cancelled)"
        client key attempt
  | Request_retry { client; key; attempt; backoff_ns; _ } ->
      Printf.sprintf "request from client %d for key %d retrying: attempt %d after %.0f \
                      ns backoff" client key attempt backoff_ns
  | Request_hedged { client; key; _ } ->
      Printf.sprintf "request from client %d for key %d hedged with a second attempt"
        client key
  | Request_shed { client; key; worker } ->
      Printf.sprintf "request from client %d for key %d SHED by worker %d's open breaker"
        client key worker
  | Breaker_transition { worker; from_state; to_state } ->
      Printf.sprintf "worker %d circuit breaker: %s -> %s" worker from_state to_state
  | Shard_failover { worker; from_cpu; to_cpu } ->
      Printf.sprintf "shard worker %d failed over from cpu %d to cpu %d" worker from_cpu
        to_cpu
