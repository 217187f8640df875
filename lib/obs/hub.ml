type sink = { sink_name : string; handle : ts:float -> Event.t -> unit }

type t = { mutable sinks : sink list; mutable clock : unit -> float }

let create () = { sinks = []; clock = (fun () -> 0.) }

let enabled t = t.sinks <> []

let set_clock t f = t.clock <- f

let attach t ~name handle = t.sinks <- t.sinks @ [ { sink_name = name; handle } ]

let detach t ~name = t.sinks <- List.filter (fun s -> s.sink_name <> name) t.sinks

(* A top-level loop rather than [List.iter] over a closure, so delivering
   an event allocates nothing of its own. *)
let rec deliver ts ev = function
  | [] -> ()
  | s :: rest ->
      s.handle ~ts ev;
      deliver ts ev rest

let emit t ev = match t.sinks with [] -> () | sinks -> deliver (t.clock ()) ev sinks
