(* BENCHMARK.json: the workloads, the metrics with their units and
   directions, and the bounds a later change is held to. *)

module Json = Numa_obs.Json

type metric = { name : string; unit : string; better : Stats.better; bound : float option }

type t = {
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let str j k =
  match Json.member j k with Some (Json.String s) -> Ok s | _ -> Error ("missing string " ^ k)

let list j k =
  match Json.member j k with Some (Json.List l) -> Ok l | _ -> Error ("missing list " ^ k)

let all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let metric j =
  let* name = str j "name" in
  let* unit = str j "unit" in
  let* better = str j "better" in
  let* better =
    Option.to_result ~none:(name ^ ": better must be higher or lower") (Stats.better_of_string better)
  in
  let bound = Option.bind (Json.member j "bound") Json.to_float in
  Ok { name; unit; better; bound }

let of_json j =
  let* run_seconds =
    match Json.member j "run_seconds" with Some (Json.Int n) -> Ok n | _ -> Error "missing run_seconds"
  in
  let* workloads = list j "workloads" in
  let* workloads =
    all
      (fun w ->
        let* name = str w "name" in
        let* why = str w "why" in
        Ok (name, why))
      workloads
  in
  let* end_to_end = list j "end_to_end" in
  let* end_to_end = all metric end_to_end in
  let* per_layer = list j "per_layer" in
  let* per_layer = all metric per_layer in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load path =
  match Json.load path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) (of_json j)

let find t name = List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
