module Json = Numa_obs.Json

type app_summary = { app : string; gamma : float; t_numa_s : float }

type summary = {
  scale : float;
  cpus : int;
  events_per_sec : float option;
  apps : app_summary list;
}

let float_field j key =
  match Json.member j key with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S is not a number" key))

let ( let* ) = Result.bind

(* A full bench record stores each app's numbers inside its measurement
   (gamma at top level, t_numa nested under times); the compact baseline
   stores them flat. Accept either spelling. *)
let app_of_json j =
  match Json.member j "app" with
  | Some (Json.String app) ->
      let* gamma = float_field j "gamma" in
      let* t_numa_s =
        match Json.member j "times" with
        | Some times -> float_field times "t_numa_s"
        | None -> float_field j "t_numa_s"
      in
      Ok { app; gamma; t_numa_s }
  | Some _ | None -> Error "measurement without an \"app\" string field"

let summary_of_json j =
  let* scale = float_field j "scale" in
  let* cpus =
    match Json.member j "cpus" with
    | Some (Json.Int n) -> Ok n
    | Some _ -> Error "field \"cpus\" is not an integer"
    | None -> Error "missing field \"cpus\""
  in
  let events_per_sec =
    Option.bind (Json.member j "events_per_sec") Json.to_float
  in
  let measurements =
    match (Json.member j "measurements", Json.member j "apps") with
    | Some m, _ | None, Some m -> Some m
    | None, None -> None
  in
  let* apps =
    match measurements with
    | Some (Json.List ms) ->
        List.fold_left
          (fun acc m ->
            let* acc = acc in
            let* a = app_of_json m in
            Ok (a :: acc))
          (Ok []) ms
        |> Result.map List.rev
    | Some _ -> Error "field \"measurements\"/\"apps\" is not a list"
    | None -> Error "missing field \"measurements\" (or \"apps\")"
  in
  Ok { scale; cpus; events_per_sec; apps }

let load path =
  match Json.load path with
  | Error _ as e -> e
  | Ok j -> (
      match summary_of_json j with
      | Ok _ as ok -> ok
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let to_json t =
  Json.Obj
    ([ ("scale", Json.Float t.scale); ("cpus", Json.Int t.cpus) ]
    @ (match t.events_per_sec with
      | None -> []
      | Some e -> [ ("events_per_sec", Json.Float e) ])
    @ [
        ( "apps",
          Json.List
            (List.map
               (fun a ->
                 Json.Obj
                   [
                     ("app", Json.String a.app);
                     ("gamma", Json.Float a.gamma);
                     ("t_numa_s", Json.Float a.t_numa_s);
                   ])
               t.apps) );
      ])

type line = {
  label : string;
  old_v : float;
  new_v : float;
  delta_pct : float;
  exact : bool;
  regressed : bool;
}

(* Throughput is wall-clock and regresses downward beyond [max_regress];
   gamma and run time are virtual-time and deterministic, so any movement
   at all, in either direction, is a semantic change. *)
let mk_line ~max_regress ~exact label old_v new_v =
  let delta_pct = if old_v = 0. then 0. else (new_v -. old_v) /. old_v *. 100. in
  let regressed = if exact then new_v <> old_v else -.delta_pct > max_regress in
  { label; old_v; new_v; delta_pct; exact; regressed }

let diff ~baseline ~current ~max_regress =
  if baseline.scale <> current.scale then
    Error
      (Printf.sprintf "records are not comparable: scale %.3f vs %.3f"
         baseline.scale current.scale)
  else if baseline.cpus <> current.cpus then
    Error
      (Printf.sprintf "records are not comparable: %d vs %d cpus" baseline.cpus
         current.cpus)
  else
    let throughput =
      match (baseline.events_per_sec, current.events_per_sec) with
      | Some o, Some n when o > 0. ->
          [ mk_line ~max_regress ~exact:false "events/sec" o n ]
      | _ -> []
    in
    let per_app =
      List.concat_map
        (fun (b : app_summary) ->
          match List.find_opt (fun c -> c.app = b.app) current.apps with
          | None -> []
          | Some c ->
              [
                mk_line ~max_regress ~exact:true (b.app ^ " gamma") b.gamma c.gamma;
                mk_line ~max_regress ~exact:true (b.app ^ " t_numa") b.t_numa_s c.t_numa_s;
              ])
        baseline.apps
    in
    if per_app = [] && throughput = [] then
      Error "records share no comparable metrics (no common applications)"
    else Ok (throughput @ per_app)

let regressed lines = List.exists (fun l -> l.regressed) lines

let render lines =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %14s %14s %9s\n" "metric" "baseline" "current" "delta");
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %14.6g %14.6g %+8.2f%%%s\n" l.label l.old_v l.new_v
           l.delta_pct
           (match (l.regressed, l.exact) with
           | false, _ -> ""
           | true, false -> "  REGRESSED"
           | true, true -> "  CHANGED")))
    lines;
  Buffer.contents buf
