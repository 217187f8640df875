(* Spans recorded by the benchmark around its own calls into the
   simulator: a name, a start, an end and the span that was open when it
   started. They stay in memory and leave the process with the rep's
   result. Times are monotonic-clock nanoseconds. *)

type span = { id : int; name : string; parent : int; start_ns : int64; stop_ns : int64 }

type t = { mutable closed : span list; mutable open_ : int list; mutable next : int }

let create () = { closed = []; open_ = []; next = 0 }
let now () = Monotonic_clock.now ()

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_ns = now () in
  let finish () =
    t.closed <- { id; name; parent; start_ns; stop_ns = now () } :: t.closed;
    t.open_ <- List.tl t.open_
  in
  Fun.protect ~finally:finish f

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
let duration_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* A span's self time: its duration minus the time its children cover.
   Children of one span never overlap (the benchmark is one thread), so
   their durations add. *)
let self_s spans s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration_s c else acc)
    (duration_s s) spans

(* Total and self seconds per span name, in order of first appearance. *)
let totals spans =
  List.fold_left (fun names s -> if List.mem s.name names then names else names @ [ s.name ]) [] spans
  |> List.map (fun name ->
         let own = List.filter (fun s -> s.name = name) spans in
         ( name,
           ( List.fold_left (fun acc s -> acc +. duration_s s) 0. own,
             List.fold_left (fun acc s -> acc +. self_s spans s) 0. own ) ))

let total_s spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration_s s else acc) 0. spans

let to_json s =
  Numa_obs.Json.Obj
    [
      ("id", Numa_obs.Json.Int s.id);
      ("name", Numa_obs.Json.String s.name);
      ("parent", Numa_obs.Json.Int s.parent);
      ("start_ns", Numa_obs.Json.String (Int64.to_string s.start_ns));
      ("stop_ns", Numa_obs.Json.String (Int64.to_string s.stop_ns));
    ]

let of_json j =
  let module J = Numa_obs.Json in
  match (J.member j "id", J.member j "name", J.member j "parent", J.member j "start_ns", J.member j "stop_ns") with
  | Some (J.Int id), Some (J.String name), Some (J.Int parent), Some (J.String a), Some (J.String b)
    -> (
      match (Int64.of_string_opt a, Int64.of_string_opt b) with
      | Some start_ns, Some stop_ns -> Some { id; name; parent; start_ns; stop_ns }
      | _ -> None)
  | _ -> None
