type recorded = { ts : float; lane : int; ev : Event.t }

type t = {
  n_cpus : int;
  mutable events : recorded list;  (** newest first *)
  mutable n : int;
  last_ts : float array;  (** per-lane high-water mark, for monotone lanes *)
}

let protocol_lane t = t.n_cpus

let create ~n_cpus =
  if n_cpus <= 0 then invalid_arg "Chrome_trace.create: n_cpus must be positive";
  { n_cpus; events = []; n = 0; last_ts = Array.make (n_cpus + 1) 0. }

let record t ~ts ev =
  let lane =
    match Event.lane ev with
    | Event.Protocol_lane -> protocol_lane t
    | Event.Cpu_lane c -> if c >= 0 && c < t.n_cpus then c else protocol_lane t
  in
  (* Events are stamped with the engine's global virtual clock, which can
     step back slightly across inline turns; clamp per lane so each lane
     reads as a monotone timeline in the viewer. *)
  let ts = Float.max ts t.last_ts.(lane) in
  t.last_ts.(lane) <- ts;
  t.events <- { ts; lane; ev } :: t.events;
  t.n <- t.n + 1

let attach t hub = Hub.attach hub ~name:"chrome-trace" (fun ~ts ev -> record t ~ts ev)

let length t = t.n

let lane_name t lane = if lane = protocol_lane t then "protocol" else Printf.sprintf "CPU %d" lane

let pid = 1

let metadata_events t =
  let thread_name lane =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("ts", Json.Float 0.);
        ("pid", Json.Int pid);
        ("tid", Json.Int lane);
        ("args", Json.Obj [ ("name", Json.String (lane_name t lane)) ]);
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
  :: List.init (t.n_cpus + 1) thread_name

let event_to_json { ts; lane; ev } =
  Json.Obj
    [
      ("name", Json.String (Event.name ev));
      ("cat", Json.String "numa");
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("ts", Json.Float ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int lane);
      ("args", Json.Obj (Event.args ev));
    ]

let other_data t =
  Json.Obj
    [ ("clock", Json.String "virtual-ns"); ("cpus", Json.Int t.n_cpus); ("events", Json.Int t.n) ]

let to_json t =
  Json.Obj
    [
      ("traceEvents", Json.List (metadata_events t @ List.rev_map event_to_json t.events));
      ("displayTimeUnit", Json.String "ns");
      ("otherData", other_data t);
    ]

(* The bytes of [Json.save (to_json t)], streamed one trace event at a
   time through a reused buffer that is flushed as it fills, so neither
   the whole tree nor the whole string ever exists. *)
let save t path =
  let chunk = 65536 in
  Out_channel.with_open_text path (fun oc ->
      let buf = Buffer.create (2 * chunk) in
      let first = ref true in
      let item json =
        if !first then first := false else Buffer.add_char buf ',';
        Json.to_buffer buf json;
        if Buffer.length buf >= chunk then begin
          Buffer.output_buffer oc buf;
          Buffer.clear buf
        end
      in
      Buffer.add_string buf "{\"traceEvents\":[";
      List.iter item (metadata_events t);
      let events = Array.of_list t.events in
      for i = Array.length events - 1 downto 0 do
        item (event_to_json events.(i))
      done;
      Buffer.add_string buf "],\"displayTimeUnit\":\"ns\",\"otherData\":";
      Json.to_buffer buf (other_data t);
      Buffer.add_string buf "}\n";
      Buffer.output_buffer oc buf)

let iter t f = List.iter (fun r -> f ~ts:r.ts ~lane:r.lane r.ev) (List.rev t.events)
