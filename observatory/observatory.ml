(* The benchmark's command line.

     observatory.exe run      [--workload W]... [--seed S] [--seconds T]
                              [--out FILE] [--append-history]
     observatory.exe trace    [--workload W]... [--seed S] [--seconds T]
     observatory.exe compare  PARENT_DIR CHANGE_DIR
     observatory.exe expected [--write]
     observatory.exe rep      WORKLOAD [--seed S] [--traced] [--check-trace]

   [run] and [trace] drive each workload closed-loop, one repetition at a
   time: every rep is a fresh child process ([rep]), started only after
   the previous one has exited, so allocation counts and peak RSS belong
   to that rep alone. Reps continue until [--seconds] have passed (at
   least three). Both print a table per workload and, as their last line,
   one JSON object with the BENCHMARK.json metrics. Run from the root of
   the repository. *)

open Cmdliner
module Json = Numa_obs.Json
open Numa_observatory

let benchmark_file = "BENCHMARK.json"
let expected_file = "observatory/expected.json"
let history_file = "observatory/HISTORY.jsonl"

(* Scratch space for saved traces; deleted file by file. *)
let trace_dir = ".observatory"

let ensure_trace_dir () = if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755
let min_reps = 3

(* --- running reps in children ---------------------------------------- *)

let last_line s =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let spawn_rep (w : Workload.t) ~seed ~traced ~check_trace =
  let exe = Sys.executable_name in
  let args =
    [ exe; "rep"; w.name; "--seed"; Int64.to_string seed ]
    @ (if traced then [ "--traced" ] else [])
    @ if check_trace then [ "--check-trace" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match Json.parse (last_line out) with
      | Ok j -> Option.to_result ~none:"malformed rep result" (Workload.outcome_of_json j)
      | Error e -> Error ("unreadable rep result: " ^ e))
  | Unix.WEXITED n -> Error (Printf.sprintf "rep exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "rep killed by signal %d" n)

(* Committed digests: seed -> workload -> digest. *)
let load_expected () =
  match Json.load expected_file with
  | Ok (Json.Obj seeds) ->
      List.map
        (fun (seed, ws) ->
          ( seed,
            match ws with
            | Json.Obj l -> List.filter_map (fun (w, d) -> match d with Json.String s -> Some (w, s) | _ -> None) l
            | _ -> [] ))
        seeds
  | Ok _ | Error _ -> []

let expected_digest expected ~seed (w : Workload.t) =
  Option.bind (List.assoc_opt (Int64.to_string seed) expected) (List.assoc_opt w.name)

(* Seeds with committed digests; the first also checks any other seed. *)
let expected_seeds = [ 42L; 7L ]
let check_seed = List.hd expected_seeds

(* The untraced reps of one workload, checked: a rep fails when it
   raises, reports a problem, or disagrees with the first rep's digest.
   The digest is then checked against the committed one for this seed,
   or, for a seed without one, through one extra untimed rep at
   [check_seed]. *)
let measure (w : Workload.t) ~seed ~seconds =
  let start = Unix.gettimeofday () in
  (* Each rep is paired with the calibration kernel's mean time over the
     two timings around it. *)
  let rec loop i before acc =
    if i > min_reps && Unix.gettimeofday () -. start >= seconds then List.rev acc
    else
      let result = spawn_rep w ~seed ~traced:false ~check_trace:(i = 1) in
      let after = Calibration.time_s () in
      let slowdown = (before +. after) /. 2. /. Calibration.reference_s in
      loop (i + 1) after ((result, slowdown) :: acc)
  in
  let results = loop 1 (Calibration.time_s ()) [] in
  let reference =
    List.find_map
      (function Ok (o : Workload.outcome), _ when o.problems = [] -> Some o.digest | _ -> None)
      results
  in
  let problems = ref [] and failed = ref 0 in
  let fail msg =
    incr failed;
    problems := msg :: !problems
  in
  let reps =
    List.filter_map
      (fun (result, slowdown) ->
        match result with
        | Error e ->
            fail e;
            None
        | Ok (o : Workload.outcome) when o.problems <> [] ->
            fail (String.concat "; " o.problems);
            None
        | Ok o when Some o.digest <> reference ->
            fail (Printf.sprintf "report digest %s differs from the first rep's" o.digest);
            None
        | Ok outcome -> Some { Metrics.outcome; slowdown })
      results
  in
  let expected = load_expected () in
  let attempted = ref (List.length results) in
  let drift =
    match expected_digest expected ~seed w with
    | Some d -> reference <> None && reference <> Some d
    | None -> (
        match expected_digest expected ~seed:check_seed w with
        | None ->
            fail ("no committed digest for " ^ w.name ^ " in " ^ expected_file);
            false
        | Some d -> (
            incr attempted;
            match spawn_rep w ~seed:check_seed ~traced:false ~check_trace:false with
            | Ok o when o.problems = [] -> o.digest <> d
            | Ok o ->
                fail (String.concat "; " o.problems);
                false
            | Error e ->
                fail e;
                false))
  in
  {
    Metrics.workload = w;
    seed;
    reps;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    drift;
  }

let correct (r : Metrics.run) = r.failed = 0 && (not r.drift) && r.reps <> []

(* --- result lines ----------------------------------------------------- *)

(* With one workload the metrics keep their BENCHMARK.json names; with
   several, each is prefixed by its workload. *)
let print_result_line schema_metrics per_workload ~correct ~attempted ~failed =
  let metrics, values =
    match per_workload with
    | [ (_, values) ] -> (schema_metrics, values)
    | _ ->
        List.split
          (List.concat_map
             (fun (w, values) ->
               List.map
                 (fun (m : Schema.metric) ->
                   let name = w ^ "." ^ m.Schema.name in
                   ( { m with Schema.name },
                     (name, Option.value (List.assoc_opt m.Schema.name values) ~default:nan) ))
                 schema_metrics)
             per_workload)
  in
  print_endline (Metrics.result_line ~correct ~attempted ~failed metrics values)

let load_schema () =
  match Schema.load benchmark_file with
  | Ok s -> s
  | Error e ->
      prerr_endline ("observatory: " ^ e);
      exit 2

let select names =
  match names with
  | [] -> Workload.all
  | _ ->
      List.map
        (fun n ->
          match Workload.find n with
          | Some w -> w
          | None ->
              Printf.eprintf "observatory: unknown workload %S; known: %s\n" n
                (String.concat ", " (Workload.names ()));
              exit 2)
        names

(* --- run ------------------------------------------------------------- *)

let git_commit () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] in
    let out = String.trim (In_channel.input_all ic) in
    match Unix.close_process_in ic with Unix.WEXITED 0 when out <> "" -> out | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let history_line ~seed runs =
  Json.to_string
    (Json.Obj
       [
         ("commit", Json.String (git_commit ()));
         ("seed", Json.String (Int64.to_string seed));
         ( "workloads",
           Json.Obj
             (List.map
                (fun (r : Metrics.run) ->
                  ( r.workload.Workload.name,
                    Json.Obj
                      (List.map
                         (fun ((m : Metrics.e2e), (s : Stats.summary)) ->
                           (m.name, Json.Obj [ ("median", Json.Float s.median); ("iqr", Json.Float (Stats.iqr s)) ]))
                         (Metrics.measured r)) ))
                runs) );
       ])

let run_action names seed seconds out append_history =
  let schema = load_schema () in
  let seconds = Option.value seconds ~default:(float_of_int schema.Schema.run_seconds) in
  ensure_trace_dir ();
  let runs = List.map (fun w -> measure w ~seed ~seconds) (select names) in
  let buf = Buffer.create 4096 in
  List.iter (Metrics.print_run buf) runs;
  print_string (Buffer.contents buf);
  Json.save
    (Json.Obj
       [
         ("seed", Json.String (Int64.to_string seed));
         ("workloads", Json.List (List.map Metrics.run_to_json runs));
       ])
    out;
  Printf.printf "wrote %s\n" out;
  if append_history then begin
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 history_file (fun oc ->
        output_string oc (history_line ~seed runs ^ "\n"));
    Printf.printf "appended to %s\n" history_file
  end;
  let ok = List.for_all correct runs in
  print_result_line schema.Schema.end_to_end
    (List.map (fun (r : Metrics.run) -> (r.workload.Workload.name, Metrics.values r)) runs)
    ~correct:ok
    ~attempted:(List.fold_left (fun a (r : Metrics.run) -> a + r.attempted) 0 runs)
    ~failed:(List.fold_left (fun a (r : Metrics.run) -> a + r.failed) 0 runs);
  if ok then 0 else 1

(* --- trace ----------------------------------------------------------- *)

let trace_action names seed seconds =
  let schema = load_schema () in
  let seconds = Option.value seconds ~default:(float_of_int schema.Schema.run_seconds) in
  ensure_trace_dir ();
  let workloads = select names in
  (* The untraced reps get half the time; the traced rep and the
     micro-tests take about the other half. *)
  let measured =
    List.map
      (fun w ->
        let untraced = measure w ~seed ~seconds:(seconds /. 2.) in
        let traced = spawn_rep w ~seed ~traced:true ~check_trace:false in
        (untraced, traced))
      workloads
  in
  let micro = Layers.measure ~trace_dir () in
  let buf = Buffer.create 8192 in
  let results =
    List.map
      (fun ((untraced : Metrics.run), traced) ->
        (* Observing must not change what the simulation decides. *)
        let matches (o : Workload.outcome) =
          List.exists (fun (r : Metrics.rep) -> r.outcome.digest = o.digest) untraced.reps
        in
        match traced with
        | Ok (o : Workload.outcome) when o.problems = [] && matches o ->
            let t = { Metrics.untraced; traced = o; micro } in
            Metrics.print_trace buf t;
            (untraced, true, Metrics.layer_values t)
        | Ok o ->
            Metrics.print_run buf untraced;
            List.iter (Printf.bprintf buf "   traced problem: %s\n")
              (if o.problems = [] then [ "its report digest differs from the untraced reps'" ] else o.problems);
            (untraced, false, [])
        | Error e ->
            Metrics.print_run buf untraced;
            Printf.bprintf buf "   traced rep failed: %s\n" e;
            (untraced, false, []))
      measured
  in
  print_string (Buffer.contents buf);
  let ok = List.for_all (fun (r, traced_ok, _) -> correct r && traced_ok) results in
  let attempted = List.fold_left (fun a ((r : Metrics.run), _, _) -> a + r.attempted + 1) 0 results in
  let failed =
    List.fold_left (fun a ((r : Metrics.run), traced_ok, _) -> a + r.failed + Bool.to_int (not traced_ok)) 0 results
  in
  print_result_line schema.Schema.per_layer
    (List.map (fun ((r : Metrics.run), _, values) -> (r.workload.Workload.name, values)) results)
    ~correct:ok ~attempted ~failed;
  if ok then 0 else 1

(* --- compare --------------------------------------------------------- *)

let load_records dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.filter_map (fun f ->
         match Json.load (Filename.concat dir f) with
         | Ok j -> Some (Metrics.medians_of_json j)
         | Error e ->
             Printf.eprintf "observatory: skipping %s: %s\n" f e;
             None)

let compare_action parent_dir change_dir =
  let schema = load_schema () in
  let parent = load_records parent_dir and change = load_records change_dir in
  let pairs = min (List.length parent) (List.length change) in
  if pairs = 0 then begin
    prerr_endline "observatory: no run records to compare";
    exit 2
  end;
  if pairs < 10 then Printf.printf "warning: %d pairs; the rule wants at least 10\n" pairs;
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let parent = take parent and change = take change in
  let worst = ref 0 in
  Printf.printf "%d pairs, parent %s vs change %s\n%-10s" pairs parent_dir change_dir "workload";
  List.iter (fun (m : Metrics.e2e) -> Printf.printf " %-24s" m.name) Metrics.end_to_end;
  print_newline ();
  List.iter
    (fun (w : Workload.t) ->
      let values records name = List.filter_map (List.assoc_opt (w.name, name)) records in
      if values parent "wall_s" <> [] then begin
        Printf.printf "%-10s" w.name;
        List.iter
          (fun (m : Metrics.e2e) ->
            let p = values parent m.name and c = values change m.name in
            let cell =
              if p = [] || List.length p <> List.length c then "n/a"
              else
                let pm = Stats.median p and cm = Stats.median c in
                let verdict =
                  match Schema.find schema m.name with
                  | Some { Schema.better; bound = Some bound; _ } when not m.exact ->
                      Stats.sampled_verdict better ~bound ~parent:p ~change:c
                  | _ -> Stats.exact_verdict ~parent:pm ~change:cm
                in
                (match verdict with Stats.Regressed | Stats.Differs -> worst := 1 | _ -> ());
                let pct = if pm = 0. then 0. else 100. *. (cm -. pm) /. Float.abs pm in
                Printf.sprintf "%s %+.1f%%" (Stats.verdict_to_string verdict) pct
            in
            Printf.printf " %-24s" cell)
          Metrics.end_to_end;
        print_newline ()
      end)
    Workload.all;
  !worst

(* --- expected -------------------------------------------------------- *)

let expected_action write =
  let digests =
    List.map
      (fun seed ->
        ( Int64.to_string seed,
          List.map
            (fun (w : Workload.t) ->
              match spawn_rep w ~seed ~traced:false ~check_trace:false with
              | Ok o when o.problems = [] -> (w.name, o.digest)
              | Ok o ->
                  Printf.eprintf "observatory: %s seed %Ld: %s\n" w.name seed (String.concat "; " o.problems);
                  exit 1
              | Error e ->
                  Printf.eprintf "observatory: %s seed %Ld: %s\n" w.name seed e;
                  exit 1)
            Workload.all ))
      expected_seeds
  in
  if write then begin
    Json.save
      (Json.Obj (List.map (fun (s, ws) -> (s, Json.Obj (List.map (fun (w, d) -> (w, Json.String d)) ws))) digests))
      expected_file;
    Printf.printf "wrote %s\n" expected_file;
    0
  end
  else
    let committed = load_expected () in
    let drift = ref 0 in
    List.iter
      (fun (s, ws) ->
        List.iter
          (fun (w, d) ->
            let c = Option.bind (List.assoc_opt s committed) (List.assoc_opt w) in
            let ok = c = Some d in
            if not ok then incr drift;
            Printf.printf "seed %-3s %-10s %s %s\n" s w d (if ok then "ok" else "DRIFT"))
          ws)
      digests;
    if !drift = 0 then 0 else 1

(* --- rep (the child) ------------------------------------------------- *)

let rep_action name seed traced check_trace =
  match Workload.find name with
  | None ->
      Printf.eprintf "observatory: unknown workload %S\n" name;
      2
  | Some w ->
      ensure_trace_dir ();
      let o = Workload.rep w ~seed ~traced ~check_trace ~trace_dir in
      print_endline (Json.to_string (Workload.outcome_to_json o));
      0

(* --- command line ---------------------------------------------------- *)

let workloads_arg =
  Arg.(value & opt_all string [] & info [ "workload"; "w" ] ~docv:"NAME" ~doc:"Workload to run (repeatable; default all).")

let seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed (7 is held out).")

let seconds_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "seconds" ] ~docv:"T" ~doc:"Measure each workload for $(docv) seconds (default: BENCHMARK.json run_seconds).")

let run_cmd =
  let out =
    Arg.(value & opt string (Filename.concat trace_dir "run.json") & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the run record.")
  in
  let history = Arg.(value & flag & info [ "append-history" ] ~doc:"Append this run's medians to observatory/HISTORY.jsonl.") in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure the end-to-end metrics, untraced, and check the simulated outputs.")
    Term.(const run_action $ workloads_arg $ seed_arg $ seconds_arg $ out $ history)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Measure the per-layer metrics: micro-tests, spans, counts from a traced rep.")
    Term.(const trace_action $ workloads_arg $ seed_arg $ seconds_arg)

let compare_cmd =
  let dir n docv = Arg.(required & pos n (some dir) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare run records of a parent and a change under the BENCHMARK.json bounds.")
    Term.(const compare_action $ dir 0 "PARENT_DIR" $ dir 1 "CHANGE_DIR")

let expected_cmd =
  let write = Arg.(value & flag & info [ "write" ] ~doc:"Rewrite observatory/expected.json.") in
  Cmd.v
    (Cmd.info "expected" ~doc:"Check (or with --write, record) the report digests for seeds 42 and 7.")
    Term.(const expected_action $ write)

let rep_cmd =
  let workload = Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD") in
  let traced = Arg.(value & flag & info [ "traced" ] ~doc:"Attach a counting hub sink and access hook.") in
  let check = Arg.(value & flag & info [ "check-trace" ] ~doc:"Parse the saved trace and count its events.") in
  Cmd.v
    (Cmd.info "rep" ~doc:"Run one repetition and print its result as one JSON line.")
    Term.(const rep_action $ workload $ seed_arg $ traced $ check)

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "observatory" ~doc:"The NUMA simulator's benchmark.")
          [ run_cmd; trace_cmd; compare_cmd; expected_cmd; rep_cmd ]))
