type t = {
  n_cpus : int;
  mutable stamps : float array;  (** clamped stamps, in recording order *)
  mutable events : Event.t array;
  mutable n : int;  (** the used prefix of [stamps] and [events] *)
  last_ts : float array;  (** per-lane high-water mark, for monotone lanes *)
}

let protocol_lane t = t.n_cpus

let create ~n_cpus =
  if n_cpus <= 0 then invalid_arg "Chrome_trace.create: n_cpus must be positive";
  { n_cpus; stamps = [||]; events = [||]; n = 0; last_ts = Array.make (n_cpus + 1) 0. }

let lane t ev =
  let c = Event.lane ev in
  if c >= 0 && c < t.n_cpus then c else protocol_lane t

let record t ~ts ev =
  let lane = lane t ev in
  (* Events are stamped with the engine's global virtual clock, which can
     step back slightly across inline turns; clamp per lane so each lane
     reads as a monotone timeline in the viewer. A nan stamp takes the
     lane's high-water mark, so it cannot poison the stamps after it. *)
  let last = t.last_ts.(lane) in
  let ts = if Float.is_nan ts then last else Float.max ts last in
  t.last_ts.(lane) <- ts;
  if t.n = Array.length t.events then begin
    let cap = max 256 (2 * t.n) in
    let stamps = Array.make cap 0. and events = Array.make cap ev in
    Array.blit t.stamps 0 stamps 0 t.n;
    Array.blit t.events 0 events 0 t.n;
    t.stamps <- stamps;
    t.events <- events
  end;
  t.stamps.(t.n) <- ts;
  t.events.(t.n) <- ev;
  t.n <- t.n + 1

let attach t hub = Hub.attach hub ~name:"chrome-trace" (fun ~ts ev -> record t ~ts ev)

let length t = t.n

let lane_name t lane = if lane = protocol_lane t then "protocol" else Printf.sprintf "CPU %d" lane

(* Each event's envelope is literal text around its name, stamp, lane and
   args, written straight into a reused buffer that is flushed as it fills.
   The names are snake_case constants, so they need no escape scan, and
   each lane's [,"pid":1,"tid":N,"args":] text is built once per save. One
   engine turn emits several events at one virtual time, so a stamp whose
   bits equal the previous event's reuses that stamp's text, kept in a
   reused 32-byte [Bytes]: no text of [Json.add_float] is longer. No
   recorded stamp is nan, so the first one always misses. *)
let save t path =
  let chunk = 65536 in
  Out_channel.with_open_text path (fun oc ->
      let buf = Buffer.create (2 * chunk) in
      Buffer.add_string buf {|{"traceEvents":[{"name":"process_name","ph":"M","ts":0.0,|};
      Buffer.add_string buf {|"pid":1,"tid":0,"args":{"name":"numa_sim"}}|};
      for lane = 0 to t.n_cpus do
        Buffer.add_string buf {|,{"name":"thread_name","ph":"M","ts":0.0,"pid":1,"tid":|};
        Json.add_int buf lane;
        Buffer.add_string buf {|,"args":{"name":|};
        Json.add_string buf (lane_name t lane);
        Buffer.add_string buf "}}"
      done;
      let lane_text =
        Array.init (t.n_cpus + 1) (fun lane ->
            Printf.sprintf {|,"pid":1,"tid":%d,"args":|} lane)
      in
      let memo_bits = ref (Int64.bits_of_float Float.nan) and memo_len = ref 0 in
      let memo_text = Bytes.create 32 in
      for i = 0 to t.n - 1 do
        let ev = t.events.(i) and ts = t.stamps.(i) in
        Buffer.add_string buf {|,{"name":"|};
        Buffer.add_string buf (Event.name ev);
        Buffer.add_string buf {|","cat":"numa","ph":"i","s":"t","ts":|};
        let bits = Int64.bits_of_float ts in
        if Int64.equal bits !memo_bits then Buffer.add_subbytes buf memo_text 0 !memo_len
        else begin
          let start = Buffer.length buf in
          Json.add_float buf ts;
          memo_bits := bits;
          memo_len := Buffer.length buf - start;
          Buffer.blit buf start memo_text 0 !memo_len
        end;
        Buffer.add_string buf lane_text.(lane t ev);
        Event.add_args buf ev;
        Buffer.add_char buf '}';
        if Buffer.length buf >= chunk then begin
          Buffer.output_buffer oc buf;
          Buffer.clear buf
        end
      done;
      Buffer.add_string buf
        {|],"displayTimeUnit":"ns","otherData":{"clock":"virtual-ns","cpus":|};
      Json.add_int buf t.n_cpus;
      Buffer.add_string buf {|,"events":|};
      Json.add_int buf t.n;
      Buffer.add_string buf "}}\n";
      Buffer.output_buffer oc buf)

let iter t f =
  for i = 0 to t.n - 1 do
    f ~ts:t.stamps.(i) ~lane:(lane t t.events.(i)) t.events.(i)
  done
