type sink = { sink_name : string; handle : ts:float -> Event.t -> unit }

type t = { mutable sinks : sink list; mutable clock : unit -> float }

let create () = { sinks = []; clock = (fun () -> 0.) }

let enabled t = t.sinks <> []

let set_clock t f = t.clock <- f

let attach t ~name handle = t.sinks <- t.sinks @ [ { sink_name = name; handle } ]

let detach t ~name = t.sinks <- List.filter (fun s -> s.sink_name <> name) t.sinks

let emit t ev =
  match t.sinks with
  | [] -> ()
  | sinks ->
      let ts = t.clock () in
      List.iter (fun s -> s.handle ~ts ev) sinks
