(* Regenerates every table and figure of the paper, plus the ablation
   studies indexed in DESIGN.md. `experiments all` is what EXPERIMENTS.md
   records. *)

open Cmdliner
module Runner = Numa_metrics.Runner
module Table3 = Numa_metrics.Table3
module Table4 = Numa_metrics.Table4
module Ablations = Numa_metrics.Ablations
module Tournament = Numa_metrics.Tournament
module Chaos = Numa_metrics.Chaos
module Pressure = Numa_metrics.Pressure
module Pt_sweep = Numa_metrics.Pt_sweep
module Serve_sweep = Numa_metrics.Serve_sweep
module Resilience = Numa_metrics.Resilience
module System = Numa_system.System

let scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"S" ~doc:"Problem-size multiplier for all workloads.")

let cpus_arg =
  Arg.(value & opt int 7 & info [ "cpus" ] ~docv:"N" ~doc:"Number of processors.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Distribute the independent simulated runs of each experiment over $(docv) \
           domains. Results are identical to --jobs 1; only wall-clock time changes.")

let topology_arg =
  Arg.(
    value
    & opt string "ace"
    & info [ "topology" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Machine for the policy tournament, the chaos sweep and the pressure \
              sweep: one of %s. The pt and serve sweeps sweep their own topology \
              axis; other sections always run the paper's ACE."
             (String.concat ", " Numa_machine.Config.builtin_topologies)))

let json_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-out" ] ~docv:"FILE"
        ~doc:
          "Where the policy tournament / chaos sweep / pressure sweep / pt sweep / \
           serve sweep / resilience sweep writes its JSON artifact (default: the \
           section name plus .json, e.g. policy-tournament.json).")

let apps_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "apps" ] ~docv:"A,B,..."
        ~doc:
          "Comma-separated application subset for the policy tournament and the \
           chaos / pressure / pt sweeps (default: the Table 4 set).")

let policies_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "policies" ] ~docv:"P,Q,..."
        ~doc:
          "Comma-separated policy subset for the policy tournament, in the run/measure \
           --policy syntax (default: every shipped policy).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attach the simulated-time profiler to every measured run. Sections \
           whose JSON artifacts embed full reports (the chaos sweep) then carry \
           a per-run profile section; text reports print a one-line summary.")

(* What every section runs with: the parsed flags, plus Table 3's rows
   once that section has run, so `all` feeds Table 4 from them instead of
   measuring twice. *)
type ctx = {
  spec : Runner.run_spec;
  cpus : int;
  jobs : int;
  topology : string;
  json_out : string option;
  apps : string option;
  policies : string option;
  in_all : bool;
  mutable table3_rows : Runner.measurement list option;
}

let parse_apps s =
  List.map
    (fun name ->
      match Numa_apps.Registry.find name with
      | Some app -> app
      | None ->
          failwith
            (Printf.sprintf "unknown app %S; known: %s" name
               (String.concat ", " (Numa_apps.Registry.names ()))))
    (String.split_on_char ',' s)

let parse_policies s =
  List.map
    (fun p ->
      match System.policy_spec_of_string p with
      | Ok spec -> spec
      | Error msg -> failwith (Printf.sprintf "bad policy %S: %s" p msg))
    (String.split_on_char ',' s)

let apps c = Option.map parse_apps c.apps
let policies c = Option.map parse_policies c.policies
let on_topology c = Runner.with_topology c.spec c.topology

(* A sweep's artifact: print its table, save its JSON (default file: the
   section name), and fail the section on any violation it counted. *)
let artifact c ~default ~label ?violations (text, json) =
  print_endline text;
  let path = Option.value c.json_out ~default in
  Numa_obs.Json.save json path;
  Printf.printf "%s JSON written to %s\n" label path;
  match violations with Some (n, msg) when n > 0 -> failwith (msg n) | _ -> ()

let policy_tournament c =
  let topology = c.topology in
  let rows =
    Tournament.run ~jobs:c.jobs ?policies:(policies c) ?apps:(apps c)
      ~spec:(on_topology c) ()
  in
  artifact c ~default:"policy-tournament.json" ~label:"tournament"
    (Tournament.render ~topology rows, Tournament.to_json ~topology rows)

let chaos_sweep c =
  let topology = c.topology in
  let rows = Chaos.run ~jobs:c.jobs ?apps:(apps c) ~spec:(on_topology c) () in
  artifact c ~default:"chaos-sweep.json" ~label:"chaos"
    ~violations:
      ( Chaos.total_violations rows,
        Printf.sprintf "chaos sweep found %d protocol invariant violations" )
    (Chaos.render ~topology rows, Chaos.to_json ~topology rows)

let pressure_sweep c =
  let topology = c.topology in
  let rows = Pressure.run ~jobs:c.jobs ?apps:(apps c) ~spec:(on_topology c) () in
  artifact c ~default:"pressure-sweep.json" ~label:"pressure"
    ~violations:
      ( Pressure.total_violations rows,
        Printf.sprintf "pressure sweep found %d protocol invariant violations" )
    (Pressure.render ~topology rows, Pressure.to_json ~topology rows)

(* The pt and serve sweeps own their topology axis (each variant or row
   names one), so --topology does not apply to them. *)
let pt_sweep c =
  let rows = Pt_sweep.run ~jobs:c.jobs ?apps:(apps c) ~spec:c.spec () in
  artifact c ~default:"pt-sweep.json" ~label:"pt-sweep"
    ~violations:
      ( Pt_sweep.total_violations rows,
        Printf.sprintf "pt sweep found %d protocol invariant violations" )
    (Pt_sweep.render rows, Pt_sweep.to_json rows)

let serve_sweep c =
  let rows = Serve_sweep.run ~jobs:c.jobs ?policies:(policies c) ~spec:c.spec () in
  artifact c ~default:"serve-sweep.json" ~label:"serve-sweep"
    ~violations:
      ( Serve_sweep.total_violations rows,
        Printf.sprintf "serve sweep found %d protocol invariant violations" )
    (Serve_sweep.render ~scale:c.spec.Runner.scale rows, Serve_sweep.to_json rows)

(* The grid pins its own machine, traffic and fault plans (the 2x
   node-offline recovery it reports is an acceptance gate, so the scenario
   must not drift with --cpus/--scale); only the seed carries over. *)
let resilience_sweep c =
  let rows = Resilience.run ~jobs:c.jobs ~spec:c.spec () in
  artifact c ~default:"resilience-sweep.json" ~label:"resilience-sweep"
    ~violations:
      ( Resilience.total_violations rows,
        Printf.sprintf "resilience sweep found %d invariant/conservation violations" )
    (Resilience.render rows, Resilience.to_json rows)

let table3 c =
  let rows = Table3.run ~jobs:c.jobs ~spec:c.spec () in
  c.table3_rows <- Some rows;
  print_endline (Table3.render rows);
  print_endline (Table3.render_comparison rows)

let table4 c =
  let rows =
    match c.table3_rows with
    | Some rows -> rows
    | None -> Table3.run ~apps:Numa_apps.Registry.table4 ~jobs:c.jobs ~spec:c.spec ()
  in
  let t4 = Table4.of_measurements rows in
  print_endline (Table4.render t4);
  print_endline (Table4.render_comparison t4)

let false_sharing c =
  let measure name = Runner.measure (Option.get (Numa_apps.Registry.find name)) c.spec in
  let seg = measure "primes2" and unseg = measure "primes2-unseg" in
  Printf.printf
    "Ablation A2: false sharing in primes2 (section 4.2)\n\
     variant          alpha(model)  alpha(counted)  Tnuma\n\
     unsegregated     %.2f          %.2f            %.1f\n\
     segregated       %.2f          %.2f            %.1f\n\
     (the paper reports the same tuning took alpha from 0.66 to 1.00)\n"
    unseg.Runner.alpha unseg.Runner.r_numa.Numa_system.Report.alpha_counted
    unseg.Runner.times.Numa_metrics.Model.t_numa seg.Runner.alpha
    seg.Runner.r_numa.Numa_system.Report.alpha_counted
    seg.Runner.times.Numa_metrics.Model.t_numa

(* Run [name] under the live policy with a trace buffer attached. *)
let traced_run { spec; _ } name ~scale =
  let spec = { spec with Runner.scale } in
  let sys = Runner.system (Option.get (Numa_apps.Registry.find name)) spec in
  let buffer = Numa_trace.Trace_buffer.create () in
  Numa_trace.Trace_buffer.attach buffer sys;
  ignore (System.run sys);
  (Runner.config_for spec, buffer)

let optimal_study c =
  (* Trace an imatmult numa run and compare against the DP optimum. *)
  let config, buffer = traced_run c "imatmult" ~scale:c.spec.Runner.scale in
  print_endline "Ablation A7: offline optimal placement vs the live policy (imatmult)";
  print_endline (Numa_trace.Optimal.render (Numa_trace.Optimal.analyse ~config buffer))

let replay_study c =
  (* Trace one primes3 run, then evaluate every policy on the same trace —
     the cheap comparison methodology of section 5. *)
  let config, buffer = traced_run c "primes3" ~scale:(0.2 *. c.spec.Runner.scale) in
  Printf.printf
    "Trace-driven policy comparison (primes3 trace: %d events, %d references)\n"
    (Numa_trace.Trace_buffer.length buffer)
    (Numa_trace.Trace_buffer.total_references buffer);
  print_endline
    (Numa_trace.Replay.render
       (Numa_trace.Replay.compare_policies ~config
          ~policies:
            [
              System.Move_limit { threshold = 0 };
              System.Move_limit { threshold = 4 };
              System.Move_limit { threshold = 16 };
              System.Never_pin;
              System.All_global;
              System.Random_assign { p_global = 0.5; seed = 7L };
            ]
          buffer))

let topology_sweep ({ jobs; spec; cpus; _ } as c) =
  (* Standalone, the section first draws the machines it sweeps. *)
  if not c.in_all then
    List.iter
      (fun config -> print_endline (Numa_machine.Topology.render config))
      (List.filter_map
         (Numa_machine.Config.of_topology_name ~n_cpus:cpus)
         Numa_machine.Config.builtin_topologies);
  print_endline (Ablations.render_topology_sweep (Ablations.topology_sweep ~jobs ~spec ()))

(* Every section, in the order `all` runs them: the paper's tables and
   figures, the ablations, the tournament. *)
let in_all =
  let module A = Ablations in
  let print = print_endline in
  [
    ("table1", fun _ -> print (Numa_core.Protocol.render_table Numa_machine.Access.Load));
    ("table2", fun _ -> print (Numa_core.Protocol.render_table Numa_machine.Access.Store));
    ( "figure1",
      fun { cpus; _ } ->
        print (Numa_machine.Topology.render (Numa_machine.Config.ace ~n_cpus:cpus ())) );
    ("figure2", fun _ -> print (Numa_core.Pmap_manager.figure2 ()));
    ("table3", table3);
    ("table4", table4);
    ( "threshold-sweep",
      fun { jobs; spec; _ } ->
        print (A.render_threshold_sweep (A.threshold_sweep ~jobs ~spec ())) );
    ("false-sharing", false_sharing);
    ( "scheduler",
      fun { jobs; spec; _ } ->
        print (A.render_scheduler_study (A.scheduler_study ~jobs ~spec ())) );
    ( "gl-sweep",
      fun { jobs; spec; _ } -> print (A.render_gl_sweep (A.gl_sweep ~jobs ~spec ())) );
    ("pragmas", fun { spec; _ } -> print (A.render_pragma_study (A.pragma_study ~spec ())));
    ( "unix-master",
      fun { spec; _ } ->
        print (A.render_unix_master_study (A.unix_master_study ~spec ())) );
    ("optimal", optimal_study);
    ("remote", fun { spec; _ } -> print (A.render_remote_study (A.remote_study ~spec ())));
    ("replay", replay_study);
    ( "bus",
      fun { jobs; spec; _ } -> print (A.render_bus_study (A.bus_study ~jobs ~spec ())) );
    ( "migration",
      fun { spec; _ } -> print (A.render_migration_study (A.migration_study ~spec ())) );
    ( "cpu-sweep",
      fun { jobs; spec; _ } -> print (A.render_cpu_sweep (A.cpu_sweep ~jobs ~spec ())) );
    ( "butterfly",
      fun { jobs; spec; _ } ->
        print (A.render_butterfly_study (A.butterfly_study ~jobs ~spec ())) );
    ("topology-sweep", topology_sweep);
    ( "reconsider",
      fun { spec; _ } -> print (A.render_reconsider_study (A.reconsider_study ~spec ())) );
    ("policy-tournament", policy_tournament);
  ]

(* The paranoid sweeps run only on their own: each fails on any violation. *)
let sections =
  in_all
  @ [
      ("chaos-sweep", chaos_sweep);
      ("pressure-sweep", pressure_sweep);
      ("pt-sweep", pt_sweep);
      ("serve-sweep", serve_sweep);
      ("resilience-sweep", resilience_sweep);
    ]

let all c = List.iter (fun (_, run) -> run c) in_all

let () =
  let action ~in_all run scale cpus jobs topology json_out apps policies profiling =
    let spec =
      { Runner.default_spec with Runner.scale; n_cpus = cpus; nthreads = cpus; profiling }
    in
    let c =
      { spec; cpus; jobs; topology; json_out; apps; policies; in_all; table3_rows = None }
    in
    (* The check System.create applies, made before any section draws or
       builds a machine on --cpus. *)
    match Numa_machine.Config.validate (Numa_machine.Config.ace ~n_cpus:cpus ()) with
    | Error msg ->
        Printf.eprintf "experiments: bad machine config: %s\n" msg;
        1
    | Ok _ -> (
        try
          run c;
          0
        with Failure msg | Invalid_argument msg ->
          (* bad --apps / --policies / --topology values surface here *)
          Printf.eprintf "experiments: %s\n" msg;
          1)
  in
  (* One subcommand per section keeps the historical `experiments SECTION
     [options]` syntax working; a bare `experiments` still runs everything. *)
  let section_term ~in_all run =
    Term.(
      const (action ~in_all run)
      $ scale_arg $ cpus_arg $ jobs_arg $ topology_arg $ json_out_arg $ apps_arg
      $ policies_arg $ profile_arg)
  in
  let section_cmd (name, run) =
    Cmd.v
      (Cmd.info name ~doc:(Printf.sprintf "Regenerate the %s section." name))
      (section_term ~in_all:(name = "all") run)
  in
  let cmd =
    Cmd.group
      ~default:(section_term ~in_all:true all)
      (Cmd.info "experiments" ~version:"1.0.0"
         ~doc:"Regenerate the paper's tables/figures and the ablation studies.")
      (List.map section_cmd (("all", all) :: sections))
  in
  exit (Cmd.eval' cmd)
