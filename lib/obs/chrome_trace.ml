(* Slot i of the trace is index [i land chunk_mask] of chunk [i lsr
   chunk_bits]. A chunk is a 256-slot float array of stamps and a 256-slot
   array of events, each small enough to be allocated in the minor heap;
   only the spines that hold the chunks double, so no chunk is copied. *)
let chunk_bits = 8
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* Each lane's shared blocks: its last dispatch, then a direct-mapped
   table of [refs_slots] refs blocks. *)
let refs_bits = 6
let refs_slots = 1 lsl refs_bits
let lane_slots = 1 + refs_slots

(* Fills the shared slots before their first block: it equals no event
   that has a slot. *)
let no_event = Event.Page_unpin { lpage = -1 }

type t = {
  n_cpus : int;
  mutable stamps : float array array;  (** chunks of clamped stamps, in recording order *)
  mutable events : Event.t array array;  (** chunks of events, in recording order *)
  mutable n : int;  (** slots used *)
  last_ts : float array;  (** per-lane high-water mark, for monotone lanes *)
  shared : Event.t array;  (** [lane_slots] blocks per lane *)
}

let protocol_lane t = t.n_cpus

let create ~n_cpus =
  if n_cpus <= 0 then invalid_arg "Chrome_trace.create: n_cpus must be positive";
  {
    n_cpus;
    stamps = [||];
    events = [||];
    n = 0;
    last_ts = Array.make (n_cpus + 1) 0.;
    shared = Array.make ((n_cpus + 1) * lane_slots) no_event;
  }

let lane t ev =
  let c = Event.lane ev in
  if c >= 0 && c < t.n_cpus then c else protocol_lane t

(* floor (2^62 / golden ratio), made odd, as in [Histogram]: the product's
   top [refs_bits] bits pick a refs block's slot. *)
let mix = 0x278dde6e5fd29e01

let loc_idx : Event.loc -> int = function Local -> 0 | Global -> 1 | Remote -> 2

(* The shared slot of an event on [lane], or -1 for a kind that is stored
   as recorded. A lane's refs differ mostly in these four fields; [cpu]
   picks the lane. *)
let slot ~lane (ev : Event.t) =
  match ev with
  | Dispatch _ -> lane * lane_slots
  | Refs { n; write; loc; node; _ } ->
      let key = node + (n lsl 4) + (Bool.to_int write lsl 6) + (loc_idx loc lsl 8) in
      (lane * lane_slots) + 1 + ((key * mix) lsr (63 - refs_bits))
  | _ -> -1

(* Whether two events print the same text after their stamp. *)
let same (a : Event.t) (b : Event.t) =
  a == b
  ||
  match (a, b) with
  | Dispatch a, Dispatch b -> a.tid = b.tid && a.cpu = b.cpu && String.equal a.name b.name
  | Refs a, Refs b ->
      a.n = b.n && a.cpu = b.cpu && a.node = b.node && a.write = b.write && a.loc = b.loc
  | _ -> false

let record t ~ts ev =
  let lane = lane t ev in
  (* Events are stamped with the engine's global virtual clock, which can
     step back slightly across inline turns; clamp per lane so each lane
     reads as a monotone timeline in the viewer. A nan stamp takes the
     lane's high-water mark, so it cannot poison the stamps after it. *)
  let last = t.last_ts.(lane) in
  let ts = if Float.is_nan ts then last else Float.max ts last in
  t.last_ts.(lane) <- ts;
  (* A block equal to its slot's is stored as that block, so the fresh
     one dies young; any other takes the slot. *)
  let ev =
    let s = slot ~lane ev in
    if s < 0 then ev
    else
      let kept = t.shared.(s) in
      if same kept ev then kept
      else begin
        t.shared.(s) <- ev;
        ev
      end
  in
  let c = t.n lsr chunk_bits and i = t.n land chunk_mask in
  if i = 0 then begin
    if c = Array.length t.events then begin
      let cap = max 4 (2 * c) in
      let stamps = Array.make cap [||] and events = Array.make cap [||] in
      Array.blit t.stamps 0 stamps 0 c;
      Array.blit t.events 0 events 0 c;
      t.stamps <- stamps;
      t.events <- events
    end;
    t.stamps.(c) <- Array.make chunk_size 0.;
    t.events.(c) <- Array.make chunk_size ev
  end;
  t.stamps.(c).(i) <- ts;
  t.events.(c).(i) <- ev;
  t.n <- t.n + 1

let attach t hub = Hub.attach hub ~name:"chrome-trace" (fun ~ts ev -> record t ~ts ev)

let length t = t.n

(* Inlined, so the save reads a stamp without boxing it. *)
let[@inline] stamp t i = t.stamps.(i lsr chunk_bits).(i land chunk_mask)
let event t i = t.events.(i lsr chunk_bits).(i land chunk_mask)

let lane_name t lane = if lane = protocol_lane t then "protocol" else Printf.sprintf "CPU %d" lane

(* The most text after the stamp that the save keeps per shared slot. *)
let text_room = 128

(* Each event's envelope is literal text around its name, stamp, lane and
   args, written straight into a reused buffer that is flushed as it fills.
   The names are snake_case constants, so they need no escape scan, and
   each lane's [,"pid":1,"tid":N,"args":] text is built once per save. One
   engine turn emits several events at one virtual time, so a stamp whose
   bits equal the previous event's reuses that stamp's text, kept in a
   reused 32-byte [Bytes]: no text of [Json.add_float] is longer. No
   recorded stamp is nan, so the first one always misses. An event with a
   shared slot reuses the text after the stamp that the slot's last event
   wrote, if the two are [same]; that text is kept in [text_room] bytes of
   one arena per save. *)
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
      let slots = Array.length t.shared in
      let texts = Bytes.create (slots * text_room)
      and text_len = Array.make slots 0
      and text_of = Array.make slots no_event in
      for i = 0 to t.n - 1 do
        let ev = event t i and ts = stamp t i in
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
        let lane = lane t ev in
        let s = slot ~lane ev in
        if s >= 0 && same text_of.(s) ev then
          Buffer.add_subbytes buf texts (s * text_room) text_len.(s)
        else begin
          let start = Buffer.length buf in
          Buffer.add_string buf lane_text.(lane);
          Event.add_args buf ev;
          Buffer.add_char buf '}';
          if s >= 0 then begin
            let len = Buffer.length buf - start in
            if len <= text_room then begin
              Buffer.blit buf start texts (s * text_room) len;
              text_len.(s) <- len;
              text_of.(s) <- ev
            end
            else text_of.(s) <- no_event
          end
        end;
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
    let ev = event t i in
    f ~ts:(stamp t i) ~lane:(lane t ev) ev
  done
