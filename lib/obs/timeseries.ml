module Histogram = Numa_util.Histogram

type row = {
  epoch : int;
  t_start_ns : float;
  refs : int;
  local_refs : int;
  global_refs : int;
  remote_refs : int;
  alpha : float;
  bus_words : int;
  bus_delay_ns : float;
  moves : int;
  pins : int;
  copies : int;
  flushes : int;
  syncs : int;
  fallbacks : int;
  live_replicas : int;
  move_mean : float;
  move_p99 : int;
}

type acc = {
  mutable a_refs : int;
  mutable a_local : int;
  mutable a_global : int;
  mutable a_remote : int;
  mutable a_bus_words : int;
  mutable a_bus_delay : float;
  mutable a_moves : int;
  mutable a_pins : int;
  mutable a_copies : int;
  mutable a_flushes : int;
  mutable a_syncs : int;
  mutable a_fallbacks : int;
  mutable a_live_replicas : int;  (** gauge: last value seen in the epoch *)
  a_move_hist : Histogram.t;  (** cumulative per-page move counts at move time *)
}

type t = {
  epoch_ns : float;
  epochs : (int, acc) Hashtbl.t;
  mutable live_replicas : int;  (** running replica gauge *)
}

let default_epoch_ns = 10_000_000. (* 10 simulated ms *)

let create ?(epoch_ns = default_epoch_ns) () =
  if epoch_ns <= 0. then invalid_arg "Timeseries.create: epoch_ns must be positive";
  { epoch_ns; epochs = Hashtbl.create 64; live_replicas = 0 }

let epoch_of t ts = if ts <= 0. then 0 else int_of_float (ts /. t.epoch_ns)

let acc_of t ~ts =
  let e = epoch_of t ts in
  match Hashtbl.find_opt t.epochs e with
  | Some a -> a
  | None ->
      let a =
        {
          a_refs = 0;
          a_local = 0;
          a_global = 0;
          a_remote = 0;
          a_bus_words = 0;
          a_bus_delay = 0.;
          a_moves = 0;
          a_pins = 0;
          a_copies = 0;
          a_flushes = 0;
          a_syncs = 0;
          a_fallbacks = 0;
          a_live_replicas = t.live_replicas;
          a_move_hist = Histogram.create ();
        }
      in
      Hashtbl.replace t.epochs e a;
      a

let record t ~ts (ev : Event.t) =
  match ev with
  | Event.Refs { n; loc; _ } ->
      let a = acc_of t ~ts in
      a.a_refs <- a.a_refs + n;
      (match loc with
      | Event.Local -> a.a_local <- a.a_local + n
      | Event.Global -> a.a_global <- a.a_global + n
      | Event.Remote -> a.a_remote <- a.a_remote + n)
  | Event.Bus_queued { words; delay_ns; _ } ->
      let a = acc_of t ~ts in
      a.a_bus_words <- a.a_bus_words + words;
      a.a_bus_delay <- a.a_bus_delay +. delay_ns
  | Event.Page_move { moves; _ } ->
      let a = acc_of t ~ts in
      a.a_moves <- a.a_moves + 1;
      Histogram.add a.a_move_hist moves
  | Event.Page_pin _ ->
      let a = acc_of t ~ts in
      a.a_pins <- a.a_pins + 1
  | Event.Replica_create _ ->
      t.live_replicas <- t.live_replicas + 1;
      let a = acc_of t ~ts in
      a.a_copies <- a.a_copies + 1;
      a.a_live_replicas <- t.live_replicas
  | Event.Replica_flush _ ->
      t.live_replicas <- max 0 (t.live_replicas - 1);
      let a = acc_of t ~ts in
      a.a_flushes <- a.a_flushes + 1;
      a.a_live_replicas <- t.live_replicas
  | Event.Sync_to_global _ ->
      let a = acc_of t ~ts in
      a.a_syncs <- a.a_syncs + 1
  | Event.Local_fallback _ ->
      let a = acc_of t ~ts in
      a.a_fallbacks <- a.a_fallbacks + 1
  | Event.Fault_resolved _ | Event.Policy_decision _ | Event.Page_unpin _
  | Event.Zero_fill _ | Event.Page_freed _ | Event.Lock_acquired _
  | Event.Lock_contended _ | Event.Lock_released _ | Event.Dispatch _
  | Event.Syscall _ | Event.Tlb_shootdown _ | Event.Thread_migrated _
  | Event.Reconsider_scan _ | Event.Fault_injected _ | Event.Node_offline _
  | Event.Node_online _ | Event.Node_drained _ | Event.Link_degraded _
  | Event.Invariant_checked _ | Event.Out_of_memory _ | Event.Page_in _
  | Event.Page_evicted _ | Event.Writeback_started _ | Event.Writeback_done _
  | Event.Pt_walk _ | Event.Pt_shootdown _ | Event.Pt_replica_create _
  | Event.Pt_replica_drop _ | Event.Request_arrived _ | Event.Request_served _
  | Event.Request_timeout _ | Event.Request_retry _ | Event.Request_hedged _
  | Event.Request_shed _ | Event.Breaker_transition _ | Event.Shard_failover _ ->
      ()

let attach t hub = Hub.attach hub ~name:"timeseries" (fun ~ts ev -> record t ~ts ev)

let rows t =
  Hashtbl.fold (fun e a out -> (e, a) :: out) t.epochs []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (e, a) ->
         {
           epoch = e;
           t_start_ns = float_of_int e *. t.epoch_ns;
           refs = a.a_refs;
           local_refs = a.a_local;
           global_refs = a.a_global;
           remote_refs = a.a_remote;
           alpha =
             (if a.a_refs = 0 then 0. else float_of_int a.a_local /. float_of_int a.a_refs);
           bus_words = a.a_bus_words;
           bus_delay_ns = a.a_bus_delay;
           moves = a.a_moves;
           pins = a.a_pins;
           copies = a.a_copies;
           flushes = a.a_flushes;
           syncs = a.a_syncs;
           fallbacks = a.a_fallbacks;
           live_replicas = a.a_live_replicas;
           move_mean = Histogram.mean a.a_move_hist;
           move_p99 = Histogram.percentile a.a_move_hist 99.;
         })

let csv_header =
  String.concat ","
    [
      "epoch"; "t_start_ns"; "refs"; "local_refs"; "global_refs"; "remote_refs"; "alpha";
      "bus_words"; "bus_delay_ns"; "moves"; "pins"; "copies"; "flushes"; "syncs";
      "fallbacks"; "live_replicas"; "move_mean"; "move_p99";
    ]

let row_to_csv r =
  String.concat ","
    [
      string_of_int r.epoch;
      Printf.sprintf "%.0f" r.t_start_ns;
      string_of_int r.refs;
      string_of_int r.local_refs;
      string_of_int r.global_refs;
      string_of_int r.remote_refs;
      Printf.sprintf "%.4f" r.alpha;
      string_of_int r.bus_words;
      Printf.sprintf "%.0f" r.bus_delay_ns;
      string_of_int r.moves;
      string_of_int r.pins;
      string_of_int r.copies;
      string_of_int r.flushes;
      string_of_int r.syncs;
      string_of_int r.fallbacks;
      string_of_int r.live_replicas;
      Printf.sprintf "%.2f" r.move_mean;
      string_of_int r.move_p99;
    ]

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (row_to_csv r);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let save_csv t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_csv t))
