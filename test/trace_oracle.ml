(* The tree encoder that [Chrome_trace.save] writes the bytes of: every
   recorded event becomes a [Json.Obj] of eight fields plus its args list,
   and the whole document is one [Json.t] printed by [Json.to_string]. It
   reads the trace only through [Chrome_trace.iter], [protocol_lane] and
   [length], so it is the byte reference the save tests hold the direct
   writers to. *)

open Numa_obs

let args (ev : Event.t) : (string * Json.t) list =
  let open Event in
  match ev with
  | Fault_resolved { cpu; vpage; lpage; write; state } ->
      [
        ("cpu", Json.Int cpu);
        ("vpage", Json.Int vpage);
        ("lpage", Json.Int lpage);
        ("write", Json.Bool write);
        ("state", Json.String state);
      ]
  | Policy_decision { lpage; cpu; global; reason } ->
      [
        ("lpage", Json.Int lpage);
        ("cpu", Json.Int cpu);
        ("decision", Json.String (if global then "GLOBAL" else "LOCAL"));
        ("reason", Json.String reason);
      ]
  | Page_move { lpage; to_node; moves } ->
      [ ("lpage", Json.Int lpage); ("to_node", Json.Int to_node); ("moves", Json.Int moves) ]
  | Page_pin { lpage; cpu; reason } ->
      [ ("lpage", Json.Int lpage); ("cpu", Json.Int cpu); ("reason", Json.String reason) ]
  | Page_unpin { lpage } -> [ ("lpage", Json.Int lpage) ]
  | Replica_create { lpage; node } | Replica_flush { lpage; node }
  | Sync_to_global { lpage; node } ->
      [ ("lpage", Json.Int lpage); ("node", Json.Int node) ]
  | Zero_fill { lpage; node } ->
      [
        ("lpage", Json.Int lpage);
        ("node", match node with Some n -> Json.Int n | None -> Json.String "global");
      ]
  | Local_fallback { lpage; cpu } -> [ ("lpage", Json.Int lpage); ("cpu", Json.Int cpu) ]
  | Page_freed { lpage; moves } -> [ ("lpage", Json.Int lpage); ("moves", Json.Int moves) ]
  | Refs { cpu; n; write; loc; node } ->
      [
        ("cpu", Json.Int cpu);
        ("n", Json.Int n);
        ("write", Json.Bool write);
        ("loc", Json.String (loc_to_string loc));
        ("node", Json.Int node);
      ]
  | Bus_queued { cpu; words; delay_ns } ->
      [ ("cpu", Json.Int cpu); ("words", Json.Int words); ("delay_ns", Json.Float delay_ns) ]
  | Lock_acquired { lock_id; cpu; tid }
  | Lock_contended { lock_id; cpu; tid }
  | Lock_released { lock_id; cpu; tid } ->
      [ ("lock", Json.Int lock_id); ("cpu", Json.Int cpu); ("tid", Json.Int tid) ]
  | Dispatch { tid; cpu; name } ->
      [ ("tid", Json.Int tid); ("cpu", Json.Int cpu); ("thread", Json.String name) ]
  | Syscall { tid; cpu; service_ns } ->
      [ ("tid", Json.Int tid); ("cpu", Json.Int cpu); ("service_ns", Json.Float service_ns) ]
  | Tlb_shootdown { cpu; vpage; lpage } ->
      [ ("cpu", Json.Int cpu); ("vpage", Json.Int vpage); ("lpage", Json.Int lpage) ]
  | Thread_migrated { tid; from_cpu; to_cpu } ->
      [ ("tid", Json.Int tid); ("from_cpu", Json.Int from_cpu); ("to_cpu", Json.Int to_cpu) ]
  | Reconsider_scan { expired } -> [ ("expired", Json.Int expired) ]
  | Fault_injected { kind; detail } ->
      [ ("kind", Json.String kind); ("detail", Json.String detail) ]
  | Node_offline { node } | Node_online { node } -> [ ("node", Json.Int node) ]
  | Node_drained { node; pages; threads } ->
      [ ("node", Json.Int node); ("pages", Json.Int pages); ("threads", Json.Int threads) ]
  | Link_degraded { src; dst; factor } ->
      [ ("src", Json.Int src); ("dst", Json.Int dst); ("factor", Json.Float factor) ]
  | Invariant_checked { violations } -> [ ("violations", Json.Int violations) ]
  | Out_of_memory { cpu; vpage } -> [ ("cpu", Json.Int cpu); ("vpage", Json.Int vpage) ]
  | Page_in { lpage } -> [ ("lpage", Json.Int lpage) ]
  | Page_evicted { lpage; dirty } ->
      [ ("lpage", Json.Int lpage); ("dirty", Json.Bool dirty) ]
  | Writeback_started { lpage } -> [ ("lpage", Json.Int lpage) ]
  | Writeback_done { lpage; redirtied } ->
      [ ("lpage", Json.Int lpage); ("redirtied", Json.Bool redirtied) ]
  | Pt_walk { cpu; vpage; lpage; levels; ns } ->
      [
        ("cpu", Json.Int cpu);
        ("vpage", Json.Int vpage);
        ("lpage", Json.Int lpage);
        ("levels", Json.Int levels);
        ("ns", Json.Float ns);
      ]
  | Pt_shootdown { cpu; vpage; lpage; node } ->
      [
        ("cpu", Json.Int cpu);
        ("vpage", Json.Int vpage);
        ("lpage", Json.Int lpage);
        ("node", Json.Int node);
      ]
  | Pt_replica_create { pmap; node; frames } ->
      [ ("pmap", Json.Int pmap); ("node", Json.Int node); ("frames", Json.Int frames) ]
  | Pt_replica_drop { pmap; node } ->
      [ ("pmap", Json.Int pmap); ("node", Json.Int node) ]
  | Request_arrived { client; key; worker } ->
      [ ("client", Json.Int client); ("key", Json.Int key); ("worker", Json.Int worker) ]
  | Request_served { client; key; cpu; queue_ns; service_ns } ->
      [
        ("client", Json.Int client);
        ("key", Json.Int key);
        ("cpu", Json.Int cpu);
        ("queue_ns", Json.Float queue_ns);
        ("service_ns", Json.Float service_ns);
      ]
  | Request_timeout { client; key; cpu; attempt } ->
      [
        ("client", Json.Int client);
        ("key", Json.Int key);
        ("cpu", Json.Int cpu);
        ("attempt", Json.Int attempt);
      ]
  | Request_retry { client; key; cpu; attempt; backoff_ns } ->
      [
        ("client", Json.Int client);
        ("key", Json.Int key);
        ("cpu", Json.Int cpu);
        ("attempt", Json.Int attempt);
        ("backoff_ns", Json.Float backoff_ns);
      ]
  | Request_hedged { client; key; cpu } ->
      [ ("client", Json.Int client); ("key", Json.Int key); ("cpu", Json.Int cpu) ]
  | Request_shed { client; key; worker } ->
      [ ("client", Json.Int client); ("key", Json.Int key); ("worker", Json.Int worker) ]
  | Breaker_transition { worker; from_state; to_state } ->
      [
        ("worker", Json.Int worker);
        ("from", Json.String from_state);
        ("to", Json.String to_state);
      ]
  | Shard_failover { worker; from_cpu; to_cpu } ->
      [
        ("worker", Json.Int worker);
        ("from_cpu", Json.Int from_cpu);
        ("to_cpu", Json.Int to_cpu);
      ]

let pid = 1

let lane_name tr lane =
  if lane = Chrome_trace.protocol_lane tr then "protocol" else Printf.sprintf "CPU %d" lane

let metadata_events tr =
  let thread_name lane =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("ts", Json.Float 0.);
        ("pid", Json.Int pid);
        ("tid", Json.Int lane);
        ("args", Json.Obj [ ("name", Json.String (lane_name tr lane)) ]);
      ]
  in
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("ts", Json.Float 0.);
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.String "numa_sim") ]);
    ]
  :: List.init (Chrome_trace.protocol_lane tr + 1) thread_name

let event_to_json ~ts ~lane ev =
  Json.Obj
    [
      ("name", Json.String (Event.name ev));
      ("cat", Json.String "numa");
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("ts", Json.Float ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int lane);
      ("args", Json.Obj (args ev));
    ]

let other_data tr =
  Json.Obj
    [
      ("clock", Json.String "virtual-ns");
      ("cpus", Json.Int (Chrome_trace.protocol_lane tr));
      ("events", Json.Int (Chrome_trace.length tr));
    ]

let to_json tr =
  let events = ref [] in
  Chrome_trace.iter tr (fun ~ts ~lane ev -> events := event_to_json ~ts ~lane ev :: !events);
  Json.Obj
    [
      ("traceEvents", Json.List (metadata_events tr @ List.rev !events));
      ("displayTimeUnit", Json.String "ns");
      ("otherData", other_data tr);
    ]

(* The whole file [Chrome_trace.save] writes. *)
let render tr = Json.to_string (to_json tr) ^ "\n"
