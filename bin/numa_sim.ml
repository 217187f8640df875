(* Command-line driver: run one application on the simulated ACE, or run
   the paper's three-measurement protocol for it. run, profile and measure
   share one flag set, [spec_term]; trace takes its machine-and-workload
   part, [workload_term]. *)

open Cmdliner
module System = Numa_system.System
module Report = Numa_system.Report
module Runner = Numa_metrics.Runner
module Model = Numa_metrics.Model
module Sweep = Numa_metrics.Sweep

let ( let* ) = Result.bind

(* Every option value is parsed and printed by a library's own pair. *)
let conv parse print = Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (print v))

let unknown what known s =
  Printf.sprintf "unknown %s %S; known: %s" what s (String.concat ", " known)

let policy_conv = conv System.policy_spec_of_string System.policy_spec_name

let scheduler_conv =
  Arg.enum
    [ ("affinity", Numa_sim.Engine.Affinity); ("single-queue", Numa_sim.Engine.Single_queue) ]

let topology_conv =
  let known = Numa_machine.Config.builtin_topologies in
  conv (fun s -> if List.mem s known then Ok s else Error (unknown "topology" known s)) Fun.id

let pt_mode_conv = conv Numa_machine.Pt.mode_of_string Numa_machine.Pt.mode_to_string
let arrival_conv = conv Numa_util.Dist.arrival_of_string Numa_util.Dist.arrival_to_string

let retry_conv =
  conv Numa_apps.Resilience.retry_of_string Numa_apps.Resilience.retry_to_string

let hedge_conv =
  conv Numa_apps.Resilience.hedge_of_string Numa_apps.Resilience.hedge_to_string

let breaker_conv =
  conv Numa_apps.Resilience.breaker_of_string Numa_apps.Resilience.breaker_to_string

let faults_conv = conv Numa_faults.Plan.of_string Numa_faults.Plan.to_string

let victim_conv =
  let parse s =
    Option.to_result
      ~none:(unknown "victim policy" [ "clock"; "lru" ] s)
      (Numa_vm.Pageout.victim_of_string s)
  in
  conv parse Numa_vm.Pageout.victim_name

(* --- the machine and workload ------------------------------------------ *)

let app_arg =
  let doc = "Application to run (see the list command)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let policy_arg =
  Arg.(
    value
    & opt policy_conv (System.Move_limit { threshold = 4 })
    & info [ "policy"; "p" ] ~docv:"POLICY" ~doc:"NUMA placement policy.")

let cpus_arg =
  Arg.(value & opt int 7 & info [ "cpus" ] ~docv:"N" ~doc:"Number of processors.")

let threads_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "threads" ] ~docv:"N" ~doc:"Number of threads (default: one per CPU).")

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"Problem-size multiplier.")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let scheduler_arg =
  Arg.(
    value
    & opt scheduler_conv Numa_sim.Engine.Affinity
    & info [ "scheduler" ] ~docv:"MODE" ~doc:"affinity or single-queue (section 4.7).")

let unix_master_arg =
  Arg.(
    value & flag
    & info [ "unix-master" ] ~doc:"Serialise system calls on CPU 0 (section 4.6).")

let find_app name =
  match Numa_apps.Registry.find name with
  | Some app -> Ok app
  | None -> Error (unknown "application" (Numa_apps.Registry.names ()) name)

(* The application and its run on the ACE: what every subcommand that
   simulates takes. *)
let workload_term =
  let make name policy cpus threads scale seed scheduler unix_master =
    let* app = find_app name in
    match threads with
    | Some n when n <= 0 -> Error "--threads must be positive"
    | _ ->
        let nthreads = Option.value threads ~default:cpus in
        Ok
          ( app,
            {
              Runner.default_spec with
              Runner.policy;
              n_cpus = cpus;
              nthreads;
              scale;
              seed;
              scheduler;
              unix_master;
            } )
  in
  Term.(
    const make $ app_arg $ policy_arg $ cpus_arg $ threads_arg $ scale_arg $ seed_arg
    $ scheduler_arg $ unix_master_arg)

(* --- the machine's variants and its faults ----------------------------- *)

let topology_arg =
  Arg.(
    value & opt topology_conv "ace"
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Machine topology: ace (two-level, the default), butterfly-like (shared \
           level repriced at remote speed), butterfly (no shared board; global \
           pages striped over the CPU nodes) or multi-socket (two-tier 4-socket \
           distance matrix).")

let pt_mode_arg =
  Arg.(
    value
    & opt pt_mode_conv Numa_machine.Pt.Off
    & info [ "pt-mode" ] ~docv:"MODE"
        ~doc:
          "Page-table materialisation: none (translation is free, the default), \
           shared (one master table per address space, backed by real frames; \
           every software-TLB miss pays a charged multi-level walk), replicated \
           (a per-node copy of each table, eagerly on every online node, kept \
           coherent by PTE shootdowns) or replicated:N (replicas built on demand \
           by the first local walk, at most N per address space).")

let faults_arg =
  Arg.(
    value
    & opt faults_conv Numa_faults.Plan.empty
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault schedule, comma-separated: \
           node-offline:NODE\\@MS, node-online:NODE\\@MS, \
           node-flap:NODE:PERIOD_MS\\@MS..MS (sugar for alternating \
           offline/online), link-degrade:SRC:DST:FACTOR\\@MS..MS, \
           frame-squeeze:NODE:FRAC\\@MS, \
           stale-pte:LPAGE\\@MS (needs --pt-mode replicated), \
           spurious-shootdown:RATE (times in milliseconds of simulated time). \
           The same plan and workload seed reproduce the run byte for byte.")

let victim_arg =
  Arg.(
    value
    & opt victim_conv Numa_vm.Pageout.Clock
    & info [ "victim" ] ~docv:"POLICY"
        ~doc:
          "Pageout victim selection: clock (second-chance hand over the object \
           list, the default) or lru (approximate least-recently-used over \
           fault-time use stamps). Only matters under memory pressure.")

let pages_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pages" ] ~docv:"N"
        ~doc:
          "Cap the logical-page pool at $(docv) pages (default: the machine's \
           full global memory). A pool smaller than the working set makes the \
           pageout daemon carry the run — one pressure-sweep cell as a single \
           run, useful with --paranoid and --victim.")

let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Audit the coherence protocol's invariants from the periodic daemon \
           tick (single owner, replicas only when read-only, no mapping into a \
           freed or offline frame, cached cells coherent, pinned pages hold no \
           local copies). The run exits nonzero if any audit finds a violation.")

(* --- served-traffic knobs (only meaningful for the serve app) ----------- *)

let arrival_arg =
  Arg.(
    value
    & opt (some arrival_conv) None
    & info [ "arrival" ] ~docv:"RATE[:BURST]"
        ~doc:
          "Open-loop arrival process for the serve app: mean $(docv) requests per \
           second of simulated time, optionally multiplied by BURST during the \
           periodic burst episodes (default 100000:4).")

let zipf_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "zipf" ] ~docv:"THETA"
        ~doc:
          "Zipf skew of the serve app's key popularity: 0 is uniform, ~1 is classic \
           web traffic (default 0.9).")

let clients_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "clients" ] ~docv:"N"
        ~doc:
          "Logical client population the serve app multiplexes onto the request \
           stream (default 1000000).")

let rw_mix_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "rw-mix" ] ~docv:"F"
        ~doc:
          "Fraction of serve requests that write their object, in [0,1] (default \
           0.1). 0 makes the store read-shared (replication-friendly); higher \
           values churn the placement protocol.")

(* --- resilience knobs (serve app only) ---------------------------------- *)

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline" ] ~docv:"US"
        ~doc:
          "Per-request deadline for the serve app, in microseconds of simulated \
           time. Alone it is observe-only (the report's resilience section \
           classifies outcomes against the SLO); combined with --retry, --hedge \
           or --breaker the deadline is armed as a cancellable virtual-time \
           timer per attempt (default 5000 when a mechanism needs one).")

let retry_arg =
  Arg.(
    value
    & opt (some retry_conv) None
    & info [ "retry" ] ~docv:"ATTEMPTS:BASE_MS:MAX_MS:JITTER"
        ~doc:
          "Retry budget for the serve app: up to ATTEMPTS tries per request, \
           with exponential backoff from BASE_MS capped at MAX_MS and \
           multiplied by (1 + JITTER*u) for a seeded uniform u (e.g. \
           3:0.2:2:0.5).")

let hedge_arg =
  Arg.(
    value
    & opt (some hedge_conv) None
    & info [ "hedge" ] ~docv:"FACTOR"
        ~doc:
          "Hedged requests for the serve app: when the first attempt outlives \
           FACTOR times the live p99 latency, launch a second attempt with the \
           remaining deadline budget and take whichever finishes.")

let breaker_arg =
  Arg.(
    value
    & opt (some breaker_conv) None
    & info [ "breaker" ] ~docv:"FAILURES:COOLDOWN_MS"
        ~doc:
          "Per-shard circuit breakers for the serve app: open after FAILURES \
           consecutive deadline misses (shedding requests at near-zero cost), \
           half-open after COOLDOWN_MS of simulated time, close on a successful \
           probe. Breakers also force open on node-offline faults and half-open \
           when the node returns, after failing the shard over to the nearest \
           online node.")

(* [app] itself when no serve flag is given, else the serve app they shape. *)
let serve_app app ~arrival ~zipf ~clients ~rw_mix ~deadline ~retry ~hedge ~breaker =
  let resilient = deadline <> None || retry <> None || hedge <> None || breaker <> None in
  let bad p = Option.fold ~none:false ~some:p in
  if arrival = None && zipf = None && clients = None && rw_mix = None && not resilient then
    Ok app
  else if app.Numa_apps.App_sig.name <> "serve" then
    Error
      (Printf.sprintf
         "--arrival/--zipf/--clients/--rw-mix/--deadline/--retry/--hedge/--breaker \
          shape served traffic and only apply to the serve app, not %S"
         app.Numa_apps.App_sig.name)
  else if bad (fun t -> not (t >= 0.)) zipf then Error "--zipf must be >= 0"
  else if bad (fun c -> c <= 0) clients then Error "--clients must be positive"
  else if bad (fun f -> not (f >= 0. && f <= 1.)) rw_mix then
    Error "--rw-mix must be in [0,1]"
  else if bad (fun d -> d <= 0) deadline then
    Error "--deadline must be a positive number of microseconds"
  else
    let resilience =
      if resilient then
        Some (Numa_apps.Resilience.make ?deadline_us:deadline ?retry ?hedge ?breaker ())
      else None
    in
    Ok (Numa_apps.Serve.make ?arrival ?theta:zipf ?clients ?rw_mix ?resilience ())

(* The one flag set of run, profile and measure: the workload on its
   machine, with its faults, audits and page tables, and serve's knobs. *)
let spec_term =
  let make workload topology faults paranoid victim pt_mode pages arrival zipf clients
      rw_mix deadline retry hedge breaker =
    let* app, spec = workload in
    let* app =
      serve_app app ~arrival ~zipf ~clients ~rw_mix ~deadline ~retry ~hedge ~breaker
    in
    let spec =
      Runner.with_topology { spec with Runner.faults; paranoid; victim; pt_mode } topology
    in
    let tweak = spec.Runner.config_tweak in
    let cap (c : Numa_machine.Config.t) =
      match pages with Some n -> { c with global_pages = n } | None -> c
    in
    Ok (app, { spec with Runner.config_tweak = (fun c -> cap (tweak c)) })
  in
  Term.(
    const make $ workload_term $ topology_arg $ faults_arg $ paranoid_arg $ victim_arg
    $ pt_mode_arg $ pages_arg $ arrival_arg $ zipf_arg $ clients_arg $ rw_mix_arg
    $ deadline_arg $ retry_arg $ hedge_arg $ breaker_arg)

(* The one exit path of the simulating subcommands. [f ~save app spec]
   writes its artifacts through [save] and returns the reports of its runs.
   The exit status is 1, with a message on stderr, for a usage error, an
   [Invalid_argument] (how [Runner.system] rejects a bad machine or fault
   plan), any invariant violation in those reports, or any failed save;
   else 0. *)
let simulate f = function
  | Error msg ->
      prerr_endline msg;
      1
  | Ok (app, spec) -> (
      let failed_saves = ref 0 in
      let save what path write =
        try write ()
        with Sys_error msg ->
          incr failed_saves;
          Printf.eprintf "numa_sim: cannot write %s %s: %s\n" what path msg
      in
      match f ~save app spec with
      | exception Invalid_argument msg ->
          Printf.eprintf "numa_sim: %s\n" msg;
          1
      | reports ->
          let n = Sweep.sum (fun r -> snd (Sweep.audits r)) reports in
          if n > 0 then Printf.eprintf "numa_sim: %d protocol invariant violations\n" n;
          if n > 0 || !failed_saves > 0 then 1 else 0)

(* replay and topology draw a machine without building a System, so they
   apply the check System.create does before they use it. *)
let check_machine config k =
  match Numa_machine.Config.validate config with
  | Ok _ -> k ()
  | Error msg ->
      Printf.eprintf "numa_sim: bad machine config: %s\n" msg;
      1

(* --- exports of run ------------------------------------------------------ *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON timeline of the run (load it in \
           Perfetto or chrome://tracing; one lane per CPU plus a protocol lane, \
           timestamps in simulated nanoseconds).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write epoch-bucketed time-series metrics as CSV: one row per 10 ms \
           epoch with alpha, bus traffic/delay, moves, pins, copies and live \
           replica count.")

let report_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-json" ] ~docv:"FILE"
        ~doc:"Write the full run report as JSON (every counter the text report prints).")

let explain_page_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "explain-page" ] ~docv:"LPAGE"
        ~doc:
          "Audit logical page $(docv): after the run, print its full placement \
           timeline (faults, moves, replicas, policy decisions with reasons) and \
           why it did or did not pin.")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Attach the simulated-time profiler and write its snapshot as JSON \
           (category tree in virtual nanoseconds plus hot pages, locks, links \
           and threads). The text and JSON reports also gain a profile section.")

(* --- subcommands --------------------------------------------------------- *)

let run_cmd =
  let action trace_out metrics_out report_json explain_page profile_out =
    simulate (fun ~save app spec ->
        let obs = Numa_obs.Hub.create () in
        (* A sink on the hub for each export asked for, paired with its flag. *)
        let sink create attach =
          Option.map (fun arg ->
              let s = create arg in
              attach s obs;
              (s, arg))
        in
        let chrome =
          sink
            (fun _ -> Numa_obs.Chrome_trace.create ~n_cpus:spec.Runner.n_cpus)
            Numa_obs.Chrome_trace.attach trace_out
        in
        let series =
          sink (fun _ -> Numa_obs.Timeseries.create ()) Numa_obs.Timeseries.attach metrics_out
        in
        let audit =
          sink (fun lpage -> Numa_obs.Page_audit.create ~lpage) Numa_obs.Page_audit.attach
            explain_page
        in
        let report =
          System.run
            (Runner.system ~obs app { spec with Runner.profiling = profile_out <> None })
        in
        Format.printf "%a@." Report.pp report;
        Option.iter
          (fun (tr, path) ->
            save "trace" path (fun () ->
                Numa_obs.Chrome_trace.save tr path;
                Printf.printf "trace: wrote %d events to %s\n"
                  (Numa_obs.Chrome_trace.length tr)
                  path))
          chrome;
        Option.iter
          (fun (ts, path) ->
            save "metrics" path (fun () ->
                Numa_obs.Timeseries.save_csv ts path;
                Printf.printf "metrics: wrote %d epochs to %s\n"
                  (List.length (Numa_obs.Timeseries.rows ts))
                  path))
          series;
        Option.iter
          (fun path ->
            save "report" path (fun () ->
                Numa_obs.Json.save (Report.to_json report) path;
                Printf.printf "report: wrote JSON to %s\n" path))
          report_json;
        (match (profile_out, report.Report.profile) with
        | None, _ | _, None -> ()
        | Some path, Some snap ->
            save "profile" path (fun () ->
                Numa_obs.Json.save (Numa_obs.Profile.snapshot_to_json snap) path;
                Printf.printf "profile: wrote JSON to %s\n" path));
        Option.iter (fun (a, _) -> print_string (Numa_obs.Page_audit.explain a)) audit;
        [ report ])
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one application once and print the full report. Optional fault \
          injection and invariant auditing; optional exports: Chrome trace \
          timeline, per-epoch metrics CSV, JSON report, per-page audit.")
    Term.(
      const action $ trace_out_arg $ metrics_out_arg $ report_json_arg $ explain_page_arg
      $ profile_out_arg $ spec_term)

let profile_cmd =
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"How many hot pages/locks/links/threads to show.")
  in
  let folded_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded-out" ] ~docv:"FILE"
          ~doc:
            "Also write the profile in folded-stack format (one \
             'cat;subcat ns' line per leaf; feed to a flame-graph tool).")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE" ~doc:"Also write the profile snapshot as JSON.")
  in
  let action top folded_out json_out =
    simulate (fun ~save app spec ->
        let sys = Runner.system app { spec with Runner.profiling = true } in
        let report = System.run sys in
        let snap = Numa_obs.Profile.snapshot ~top (Option.get (System.profile sys)) in
        print_string (Numa_obs.Profile.render snap);
        Option.iter
          (fun path ->
            save "folded profile" path (fun () ->
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc (Numa_obs.Profile.folded snap));
                Printf.printf "profile: wrote folded stacks to %s\n" path))
          folded_out;
        Option.iter
          (fun path ->
            save "profile JSON" path (fun () ->
                Numa_obs.Json.save (Numa_obs.Profile.snapshot_to_json snap) path;
                Printf.printf "profile: wrote JSON to %s\n" path))
          json_out;
        [ report ])
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one application with the simulated-time profiler attached and print \
          a perf-report-style breakdown of every virtual nanosecond: references by \
          destination and class, bus queueing per link, kernel work by cause, lock \
          spin/hold, idle — plus the hottest pages, locks, links and threads. The \
          category totals are guaranteed to sum to the CPUs' elapsed time.")
    Term.(const action $ top_arg $ folded_out_arg $ json_out_arg $ spec_term)

let measure_cmd =
  let action =
    simulate (fun ~save:_ app spec ->
        let m = Runner.measure app spec in
        let t = m.Runner.times in
        Format.printf
          "@[<v>%s (G/L = %.2f)@,\
           Tglobal = %.3f s@,Tnuma   = %.3f s@,Tlocal  = %.3f s@,\
           alpha = %.3f   beta = %.3f   gamma = %.3f@,\
           alpha (counted, numa run) = %.3f@]@."
          m.Runner.app_name m.Runner.gl t.Model.t_global t.Model.t_numa t.Model.t_local
          m.Runner.alpha m.Runner.beta m.Runner.gamma
          m.Runner.r_numa.Report.alpha_counted;
        [ m.Runner.r_numa; m.Runner.r_global; m.Runner.r_local ])
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:"Run the three-measurement protocol (Tnuma/Tglobal/Tlocal) and the model.")
    Term.(const action $ spec_term)

let trace_cmd =
  let path_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Where to write the trace (TSV).")
  in
  let action path =
    simulate (fun ~save app spec ->
        let sys = Runner.system app spec in
        let buffer = Numa_trace.Trace_buffer.create () in
        Numa_trace.Trace_buffer.attach buffer sys;
        let report = System.run sys in
        save "trace" path (fun () ->
            Numa_trace.Trace_buffer.save buffer path;
            Printf.printf "wrote %d events (%d references) to %s\n"
              (Numa_trace.Trace_buffer.length buffer)
              (Numa_trace.Trace_buffer.total_references buffer)
              path);
        [ report ])
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run one application and save its reference trace.")
    Term.(const action $ path_arg $ workload_term)

let replay_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file written by the trace command.")
  in
  let policies_arg =
    Arg.(
      value
      & opt_all policy_conv []
      & info [ "policy"; "p" ] ~docv:"POLICY"
          ~doc:"Policy to evaluate (repeatable; default: a standard slate).")
  in
  let action path policies cpus =
    let config = Numa_machine.Config.ace ~n_cpus:cpus () in
    check_machine config @@ fun () ->
    let buffer = Numa_trace.Trace_buffer.load path in
    let policies =
      if policies <> [] then policies
      else
        [
          System.Move_limit { threshold = 0 };
          System.Move_limit { threshold = 4 };
          System.Never_pin;
          System.All_global;
        ]
    in
    print_endline
      (Numa_trace.Replay.render
         (Numa_trace.Replay.compare_policies ~config ~policies buffer));
    0
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Evaluate placement policies on a saved trace (no application re-run).")
    Term.(const action $ path_arg $ policies_arg $ cpus_arg)

let list_cmd =
  let action () =
    List.iter
      (fun (a : Numa_apps.App_sig.t) ->
        Printf.printf "%-16s %s\n" a.Numa_apps.App_sig.name a.Numa_apps.App_sig.description)
      Numa_apps.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available applications.") Term.(const action $ const ())

let topology_cmd =
  let name_arg =
    Arg.(
      value & pos 0 string "ace"
      & info [] ~docv:"TOPO"
          ~doc:
            (Printf.sprintf "Topology to draw: %s, or all."
               (String.concat ", " Numa_machine.Config.builtin_topologies)))
  in
  (* Every built-in machine takes its processor count from --cpus, and
     some cannot even be built on a bad one, so check it on the ACE. *)
  let action cpus name =
    check_machine (Numa_machine.Config.ace ~n_cpus:cpus ()) @@ fun () ->
    let render n =
      match Numa_machine.Config.of_topology_name ~n_cpus:cpus n with
      | Some config ->
          print_string (Numa_machine.Topology.render config);
          true
      | None -> false
    in
    if name = "all" then begin
      List.iter
        (fun n -> ignore (render n))
        Numa_machine.Config.builtin_topologies;
      0
    end
    else if render name then 0
    else begin
      prerr_endline (unknown "topology" ("all" :: Numa_machine.Config.builtin_topologies) name);
      1
    end
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:
         "Print the machine architecture (Figure 1 for the ACE; a distance-matrix \
          drawing for the other built-in topologies).")
    Term.(const action $ cpus_arg $ name_arg)

let tables_cmd =
  let action () =
    print_endline (Numa_core.Protocol.render_table Numa_machine.Access.Load);
    print_endline (Numa_core.Protocol.render_table Numa_machine.Access.Store);
    print_endline (Numa_core.Pmap_manager.figure2 ());
    0
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Print the protocol action tables (Tables 1-2) and Figure 2.")
    Term.(const action $ const ())

let () =
  let info =
    Cmd.info "numa_sim" ~version:"1.0.0"
      ~doc:"Simulated ACE multiprocessor with Mach NUMA page placement (SOSP '89)."
  in
  exit (Cmd.eval' (Cmd.group info
       [
         run_cmd;
         profile_cmd;
         measure_cmd;
         trace_cmd;
         replay_cmd;
         list_cmd;
         topology_cmd;
         tables_cmd;
       ]))
