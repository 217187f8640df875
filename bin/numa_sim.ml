(* Command-line driver: run one application on the simulated ACE, or run
   the paper's three-measurement protocol for it. *)

open Cmdliner
module System = Numa_system.System
module Report = Numa_system.Report
module Runner = Numa_metrics.Runner
module Model = Numa_metrics.Model

let policy_conv =
  let parse s =
    match System.policy_spec_of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p = Format.pp_print_string ppf (System.policy_spec_name p) in
  Arg.conv (parse, print)

let scheduler_conv =
  Arg.enum
    [ ("affinity", Numa_sim.Engine.Affinity); ("single-queue", Numa_sim.Engine.Single_queue) ]

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

let topology_conv =
  let parse s =
    if List.mem s Numa_machine.Config.builtin_topologies then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown topology %S; known: %s" s
             (String.concat ", " Numa_machine.Config.builtin_topologies)))
  in
  Arg.conv (parse, Format.pp_print_string)

let topology_arg =
  Arg.(
    value & opt topology_conv "ace"
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Machine topology: ace (two-level, the default), butterfly-like (shared \
           level repriced at remote speed), butterfly (no shared board; global \
           pages striped over the CPU nodes) or multi-socket (two-tier 4-socket \
           distance matrix).")

let pt_mode_conv =
  let parse s =
    match Numa_machine.Pt.mode_of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Format.pp_print_string ppf (Numa_machine.Pt.mode_to_string m) in
  Arg.conv (parse, print)

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

let find_app name =
  match Numa_apps.Registry.find name with
  | Some app -> Ok app
  | None ->
      Error
        (Printf.sprintf "unknown application %S; known: %s" name
           (String.concat ", " (Numa_apps.Registry.names ())))

(* --- served-traffic knobs (only meaningful for the serve app) ----------- *)

let arrival_conv =
  let parse s =
    match Numa_util.Dist.arrival_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  let print ppf a = Format.pp_print_string ppf (Numa_util.Dist.arrival_to_string a) in
  Arg.conv (parse, print)

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

let retry_conv =
  let parse s =
    match Numa_apps.Resilience.retry_of_string s with
    | Ok r -> Ok r
    | Error msg -> Error (`Msg msg)
  in
  let print ppf r =
    Format.pp_print_string ppf (Numa_apps.Resilience.retry_to_string r)
  in
  Arg.conv (parse, print)

let hedge_conv =
  let parse s =
    match Numa_apps.Resilience.hedge_of_string s with
    | Ok h -> Ok h
    | Error msg -> Error (`Msg msg)
  in
  let print ppf h =
    Format.pp_print_string ppf (Numa_apps.Resilience.hedge_to_string h)
  in
  Arg.conv (parse, print)

let breaker_conv =
  let parse s =
    match Numa_apps.Resilience.breaker_of_string s with
    | Ok b -> Ok b
    | Error msg -> Error (`Msg msg)
  in
  let print ppf b =
    Format.pp_print_string ppf (Numa_apps.Resilience.breaker_to_string b)
  in
  Arg.conv (parse, print)

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

let resolve_app name ~arrival ~zipf ~clients ~rw_mix ~deadline ~retry ~hedge ~breaker =
  match find_app name with
  | Error _ as e -> e
  | Ok app ->
      let resilient =
        deadline <> None || retry <> None || hedge <> None || breaker <> None
      in
      if
        arrival = None && zipf = None && clients = None && rw_mix = None
        && not resilient
      then Ok app
      else if app.Numa_apps.App_sig.name <> "serve" then
        Error
          (Printf.sprintf
             "--arrival/--zipf/--clients/--rw-mix/--deadline/--retry/--hedge/--breaker \
              shape served traffic and only apply to the serve app, not %S"
             name)
      else if (match zipf with Some t -> t < 0. | None -> false) then
        Error "--zipf must be >= 0"
      else if (match clients with Some c -> c <= 0 | None -> false) then
        Error "--clients must be positive"
      else if (match rw_mix with Some f -> f < 0. || f > 1. | None -> false) then
        Error "--rw-mix must be in [0,1]"
      else if (match deadline with Some d -> d <= 0 | None -> false) then
        Error "--deadline must be a positive number of microseconds"
      else
        let resilience =
          if resilient then
            Some
              (Numa_apps.Resilience.make ?deadline_us:deadline ?retry ?hedge ?breaker
                 ())
          else None
        in
        Ok (Numa_apps.Serve.make ?arrival ?theta:zipf ?clients ?rw_mix ?resilience ())

let spec_of ?(topology = "ace") ?(faults = Numa_faults.Plan.empty) ?(paranoid = false)
    ?(profiling = false) ?(victim = Numa_vm.Pageout.Clock)
    ?(pt_mode = Numa_machine.Pt.Off) ~policy ~cpus ~threads ~scale ~seed ~scheduler
    ~unix_master () =
  Runner.with_topology
    {
      Runner.policy;
      n_cpus = cpus;
      nthreads = Option.value threads ~default:cpus;
      scale;
      seed;
      scheduler;
      unix_master;
      config_tweak = Fun.id;
      faults;
      paranoid;
      profiling;
      victim;
      pt_mode;
    }
    topology

let faults_conv =
  let parse s =
    match Numa_faults.Plan.of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p = Format.pp_print_string ppf (Numa_faults.Plan.to_string p) in
  Arg.conv (parse, print)

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

let victim_conv =
  let parse s =
    match Numa_vm.Pageout.victim_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown victim policy %S; known: clock, lru" s))
  in
  let print ppf v = Format.pp_print_string ppf (Numa_vm.Pageout.victim_name v) in
  Arg.conv (parse, print)

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

let run_cmd =
  let action app_name policy cpus threads scale seed scheduler unix_master topology
      faults paranoid victim pt_mode pages trace_out metrics_out report_json
      explain_page profile_out arrival zipf clients rw_mix deadline retry hedge
      breaker =
    match
      resolve_app app_name ~arrival ~zipf ~clients ~rw_mix ~deadline ~retry ~hedge
        ~breaker
    with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok app ->
        let spec =
          spec_of ~topology ~faults ~paranoid ~victim ~pt_mode ~policy ~cpus ~threads
            ~scale ~seed ~scheduler ~unix_master ()
        in
        let spec =
          match pages with
          | None -> spec
          | Some n ->
              let base = spec.Runner.config_tweak in
              {
                spec with
                Runner.config_tweak =
                  (fun c -> { (base c) with Numa_machine.Config.global_pages = n });
              }
        in
        let config = Runner.config_for spec ~n_cpus:spec.Runner.n_cpus in
        let obs = Numa_obs.Hub.create () in
        let chrome =
          match trace_out with
          | None -> None
          | Some path ->
              let tr = Numa_obs.Chrome_trace.create ~n_cpus:spec.Runner.n_cpus in
              Numa_obs.Chrome_trace.attach tr obs;
              Some (tr, path)
        in
        let series =
          match metrics_out with
          | None -> None
          | Some path ->
              let ts = Numa_obs.Timeseries.create () in
              Numa_obs.Timeseries.attach ts obs;
              Some (ts, path)
        in
        let audit =
          match explain_page with
          | None -> None
          | Some lpage ->
              let a = Numa_obs.Page_audit.create ~lpage in
              Numa_obs.Page_audit.attach a obs;
              Some a
        in
        match
          System.create ~obs ~policy:spec.Runner.policy ~scheduler:spec.Runner.scheduler
            ~chunk_refs:2048 ~unix_master:spec.Runner.unix_master
            ~faults:spec.Runner.faults ~paranoid:spec.Runner.paranoid
            ~profiling:(profile_out <> None) ~victim:spec.Runner.victim
            ~pt_mode:spec.Runner.pt_mode ~config ()
        with
        | exception Invalid_argument msg ->
            (* A fault plan can be well-formed yet name a node the chosen
               machine does not have; that is a usage error, not a crash. *)
            Printf.eprintf "numa_sim: %s\n" msg;
            1
        | sys ->
        app.Numa_apps.App_sig.setup sys
          {
            Numa_apps.App_sig.nthreads = spec.Runner.nthreads;
            scale = spec.Runner.scale;
            seed = spec.Runner.seed;
          };
        let report = System.run sys in
        Format.printf "%a@." Report.pp report;
        let save_errors = ref 0 in
        let saving what path f =
          try f () with Sys_error msg ->
            incr save_errors;
            Printf.eprintf "numa_sim: cannot write %s %s: %s\n" what path msg
        in
        (match chrome with
        | None -> ()
        | Some (tr, path) ->
            saving "trace" path (fun () ->
                Numa_obs.Chrome_trace.save tr path;
                Printf.printf "trace: wrote %d events to %s\n"
                  (Numa_obs.Chrome_trace.length tr)
                  path));
        (match series with
        | None -> ()
        | Some (ts, path) ->
            saving "metrics" path (fun () ->
                Numa_obs.Timeseries.save_csv ts path;
                Printf.printf "metrics: wrote %d epochs to %s\n"
                  (List.length (Numa_obs.Timeseries.rows ts))
                  path));
        (match report_json with
        | None -> ()
        | Some path ->
            saving "report" path (fun () ->
                Numa_obs.Json.save (Report.to_json report) path;
                Printf.printf "report: wrote JSON to %s\n" path));
        (match (profile_out, report.Report.profile) with
        | None, _ | _, None -> ()
        | Some path, Some snap ->
            saving "profile" path (fun () ->
                Numa_obs.Json.save (Numa_obs.Profile.snapshot_to_json snap) path;
                Printf.printf "profile: wrote JSON to %s\n" path));
        (match audit with
        | None -> ()
        | Some a -> print_string (Numa_obs.Page_audit.explain a));
        let violations =
          match report.Report.robustness with
          | Some r -> r.Report.invariant_violations
          | None -> 0
        in
        if violations > 0 then begin
          Printf.eprintf "numa_sim: %d protocol invariant violations\n" violations;
          1
        end
        else if !save_errors > 0 then 1
        else 0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one application once and print the full report. Optional fault \
          injection and invariant auditing; optional exports: Chrome trace \
          timeline, per-epoch metrics CSV, JSON report, per-page audit.")
    Term.(
      const action $ app_arg $ policy_arg $ cpus_arg $ threads_arg $ scale_arg $ seed_arg
      $ scheduler_arg $ unix_master_arg $ topology_arg $ faults_arg $ paranoid_arg
      $ victim_arg $ pt_mode_arg $ pages_arg $ trace_out_arg $ metrics_out_arg
      $ report_json_arg $ explain_page_arg $ profile_out_arg $ arrival_arg $ zipf_arg
      $ clients_arg $ rw_mix_arg $ deadline_arg $ retry_arg $ hedge_arg $ breaker_arg)

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
  let action app_name policy cpus threads scale seed scheduler unix_master topology
      faults pt_mode top folded_out json_out arrival zipf clients rw_mix deadline
      retry hedge breaker =
    match
      resolve_app app_name ~arrival ~zipf ~clients ~rw_mix ~deadline ~retry ~hedge
        ~breaker
    with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok app -> (
        let spec =
          spec_of ~topology ~faults ~profiling:true ~pt_mode ~policy ~cpus ~threads
            ~scale ~seed ~scheduler ~unix_master ()
        in
        let config = Runner.config_for spec ~n_cpus:spec.Runner.n_cpus in
        match
          System.create ~policy:spec.Runner.policy ~scheduler:spec.Runner.scheduler
            ~chunk_refs:2048 ~unix_master:spec.Runner.unix_master
            ~faults:spec.Runner.faults ~profiling:true ~pt_mode:spec.Runner.pt_mode
            ~config ()
        with
        | exception Invalid_argument msg ->
            Printf.eprintf "numa_sim: %s\n" msg;
            1
        | sys -> (
            app.Numa_apps.App_sig.setup sys
              {
                Numa_apps.App_sig.nthreads = spec.Runner.nthreads;
                scale = spec.Runner.scale;
                seed = spec.Runner.seed;
              };
            let report = System.run sys in
            match (System.profile sys, report.Report.profile) with
            | None, _ | _, None ->
                prerr_endline "numa_sim: profiler was not attached (internal error)";
                1
            | Some p, Some _ ->
                let snap = Numa_obs.Profile.snapshot ~top p in
                print_string (Numa_obs.Profile.render snap);
                let save_errors = ref 0 in
                let saving what path f =
                  try f ()
                  with Sys_error msg ->
                    incr save_errors;
                    Printf.eprintf "numa_sim: cannot write %s %s: %s\n" what path msg
                in
                (match folded_out with
                | None -> ()
                | Some path ->
                    saving "folded profile" path (fun () ->
                        Out_channel.with_open_text path (fun oc ->
                            Out_channel.output_string oc (Numa_obs.Profile.folded snap));
                        Printf.printf "profile: wrote folded stacks to %s\n" path));
                (match json_out with
                | None -> ()
                | Some path ->
                    saving "profile JSON" path (fun () ->
                        Numa_obs.Json.save (Numa_obs.Profile.snapshot_to_json snap) path;
                        Printf.printf "profile: wrote JSON to %s\n" path));
                if !save_errors > 0 then 1 else 0))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one application with the simulated-time profiler attached and print \
          a perf-report-style breakdown of every virtual nanosecond: references by \
          destination and class, bus queueing per link, kernel work by cause, lock \
          spin/hold, idle — plus the hottest pages, locks, links and threads. The \
          category totals are guaranteed to sum to the CPUs' elapsed time.")
    Term.(
      const action $ app_arg $ policy_arg $ cpus_arg $ threads_arg $ scale_arg $ seed_arg
      $ scheduler_arg $ unix_master_arg $ topology_arg $ faults_arg $ pt_mode_arg
      $ top_arg $ folded_out_arg $ json_out_arg $ arrival_arg $ zipf_arg $ clients_arg
      $ rw_mix_arg $ deadline_arg $ retry_arg $ hedge_arg $ breaker_arg)

let measure_cmd =
  let action app_name policy cpus threads scale seed scheduler unix_master topology
      pt_mode arrival zipf clients rw_mix deadline retry hedge breaker =
    match
      resolve_app app_name ~arrival ~zipf ~clients ~rw_mix ~deadline ~retry ~hedge
        ~breaker
    with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok app ->
        let spec =
          spec_of ~topology ~pt_mode ~policy ~cpus ~threads ~scale ~seed ~scheduler
            ~unix_master ()
        in
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
        0
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:"Run the three-measurement protocol (Tnuma/Tglobal/Tlocal) and the model.")
    Term.(
      const action $ app_arg $ policy_arg $ cpus_arg $ threads_arg $ scale_arg $ seed_arg
      $ scheduler_arg $ unix_master_arg $ topology_arg $ pt_mode_arg $ arrival_arg
      $ zipf_arg $ clients_arg $ rw_mix_arg $ deadline_arg $ retry_arg $ hedge_arg
      $ breaker_arg)

let trace_cmd =
  let path_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Where to write the trace (TSV).")
  in
  let action app_name policy cpus threads scale seed scheduler unix_master path =
    match find_app app_name with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok app ->
        let spec =
          spec_of ~policy ~cpus ~threads ~scale ~seed ~scheduler ~unix_master ()
        in
        let config = Numa_machine.Config.ace ~n_cpus:spec.Runner.n_cpus () in
        let sys =
          System.create ~policy:spec.Runner.policy ~scheduler:spec.Runner.scheduler
            ~unix_master:spec.Runner.unix_master ~config ()
        in
        let buffer = Numa_trace.Trace_buffer.create () in
        Numa_trace.Trace_buffer.attach buffer sys;
        app.Numa_apps.App_sig.setup sys
          {
            Numa_apps.App_sig.nthreads = spec.Runner.nthreads;
            scale = spec.Runner.scale;
            seed = spec.Runner.seed;
          };
        ignore (System.run sys);
        Numa_trace.Trace_buffer.save buffer path;
        Printf.printf "wrote %d events (%d references) to %s\n"
          (Numa_trace.Trace_buffer.length buffer)
          (Numa_trace.Trace_buffer.total_references buffer)
          path;
        0
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run one application and save its reference trace.")
    Term.(
      const action $ app_arg $ policy_arg $ cpus_arg $ threads_arg $ scale_arg $ seed_arg
      $ scheduler_arg $ unix_master_arg $ path_arg)

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
    let buffer = Numa_trace.Trace_buffer.load path in
    let config = Numa_machine.Config.ace ~n_cpus:cpus () in
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
  let action cpus name =
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
      Printf.eprintf "unknown topology %S; known: all, %s\n" name
        (String.concat ", " Numa_machine.Config.builtin_topologies);
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
