(* The benchmark harness.

   Two halves:

   1. Reproduction: prints every table and figure of the paper — the
      protocol action tables (Tables 1-2), the machine and pmap-layer
      diagrams (Figures 1-2), and the measured Tables 3-4 with the
      paper-vs-simulation comparison. Scale with BENCH_SCALE (default 1.0)
      and BENCH_CPUS (default 7); BENCH_JOBS (default 1) spreads the
      Table 3 measurements over that many domains without changing any
      result.

   2. Micro-benchmarks: one Bechamel Test.make per reproduced artefact,
      timing the computational kernel behind it (protocol transitions for
      Tables 1-2, topology/diagram rendering for Figures 1-2, a bounded
      simulation run for Table 3, the system-time accounting path for
      Table 4, and the trace DP behind the optimal study). Skip with
      BENCH_SKIP_MICRO=1.

   Set BENCH_JSON_OUT=FILE to also write the Table 3 measurements (model
   parameters plus all three per-run reports for every application) as a
   machine-readable JSON record. *)

open Bechamel
open Toolkit
module System = Numa_system.System
module Runner = Numa_metrics.Runner
module Table3 = Numa_metrics.Table3
module Table4 = Numa_metrics.Table4

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> default)
  | None -> default

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let scale = env_float "BENCH_SCALE" 1.0
let cpus = env_int "BENCH_CPUS" 7
let jobs = env_int "BENCH_JOBS" 1

(* Profiled runs: the profiler's data is pure virtual time, so attaching
   it changes no result — but it puts a profile section in every report
   of the JSON record, giving each bench artifact a full cost breakdown. *)
let spec =
  { Runner.default_spec with Runner.scale; n_cpus = cpus; nthreads = cpus; profiling = true }

(* --- part 1: reproduce the paper's artefacts -------------------------- *)

let reproduce () =
  Printf.printf "=== Reproduction (scale %.2f, %d CPUs) ===\n\n" scale cpus;
  print_endline (Numa_core.Protocol.render_table Numa_machine.Access.Load);
  print_endline (Numa_core.Protocol.render_table Numa_machine.Access.Store);
  print_endline (Numa_machine.Topology.render (Numa_machine.Config.ace ~n_cpus:cpus ()));
  print_endline (Numa_core.Pmap_manager.figure2 ());
  let wall_start = Unix.gettimeofday () in
  let rows = Table3.run ~jobs ~spec () in
  let wall_s = Unix.gettimeofday () -. wall_start in
  let total_events =
    List.fold_left
      (fun acc (r : Table3.row) ->
        let n (rep : Numa_system.Report.t) = rep.Numa_system.Report.n_events in
        acc + n r.Table3.m.Runner.r_numa + n r.Table3.m.Runner.r_global
        + n r.Table3.m.Runner.r_local)
      0 rows
  in
  let events_per_sec = if wall_s > 0. then float_of_int total_events /. wall_s else 0. in
  print_endline (Table3.render rows);
  print_endline (Table3.render_comparison rows);
  let t4 = Table4.of_measurements rows in
  print_endline (Table4.render t4);
  print_endline (Table4.render_comparison t4);
  Printf.printf "throughput: %d events in %.2f s wall = %.0f events/sec\n\n" total_events
    wall_s events_per_sec;
  match Sys.getenv_opt "BENCH_JSON_OUT" with
  | None -> ()
  | Some path ->
      let record =
        Numa_obs.Json.Obj
          [
            ("scale", Numa_obs.Json.Float scale);
            ("cpus", Numa_obs.Json.Int cpus);
            ("wall_s", Numa_obs.Json.Float wall_s);
            ("total_events", Numa_obs.Json.Int total_events);
            ("events_per_sec", Numa_obs.Json.Float events_per_sec);
            ( "measurements",
              Numa_obs.Json.List
                (List.map (fun (r : Table3.row) -> Runner.measurement_to_json r.Table3.m) rows)
            );
          ]
      in
      Numa_obs.Json.save record path;
      Printf.printf "wrote JSON measurements to %s\n\n" path

(* --- part 2: micro-benchmarks ------------------------------------------ *)

(* Table 1 kernel: the read-request transition function over all states. *)
let bench_table1 =
  Test.make ~name:"table1/protocol-read-transitions"
    (Staged.stage (fun () ->
         List.iter
           (fun state ->
             List.iter
               (fun decision ->
                 ignore
                   (Numa_core.Protocol.transition ~access:Numa_machine.Access.Load ~state
                      ~decision))
               Numa_core.Protocol.all_decisions)
           Numa_core.Protocol.all_state_views))

(* Table 2 kernel: ditto for writes. *)
let bench_table2 =
  Test.make ~name:"table2/protocol-write-transitions"
    (Staged.stage (fun () ->
         List.iter
           (fun state ->
             List.iter
               (fun decision ->
                 ignore
                   (Numa_core.Protocol.transition ~access:Numa_machine.Access.Store ~state
                      ~decision))
               Numa_core.Protocol.all_decisions)
           Numa_core.Protocol.all_state_views))

(* Figure 1 kernel: topology rendering from a live config. *)
let bench_figure1 =
  let config = Numa_machine.Config.ace () in
  Test.make ~name:"figure1/topology-render"
    (Staged.stage (fun () -> ignore (Numa_machine.Topology.render config)))

(* Figure 2 kernel: a full pmap-layer construction (manager + MMU + policy
   wiring), which is what the figure depicts. *)
let bench_figure2 =
  let config = Numa_machine.Config.ace ~local_pages_per_cpu:32 ~global_pages:64 () in
  Test.make ~name:"figure2/pmap-layer-build"
    (Staged.stage (fun () ->
         let policy = Numa_core.Policy.move_limit ~n_pages:64 () in
         ignore (Numa_core.Pmap_manager.create ~config ~policy ())))

(* Table 3 kernel: a bounded end-to-end simulation (ping-pong workload
   driving the full fault/protocol/accounting path). *)
let run_small_simulation policy =
  let config =
    Numa_machine.Config.ace ~n_cpus:4 ~local_pages_per_cpu:64 ~global_pages:128 ()
  in
  let sys = System.create ~policy ~config () in
  let data =
    System.alloc_region sys ~name:"bench" ~kind:Numa_vm.Region_attr.Data
      ~sharing:Numa_vm.Region_attr.Declared_write_shared ~pages:4 ()
  in
  let barrier = System.make_barrier sys ~name:"b" ~parties:4 in
  for cpu = 0 to 3 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun ~stack_vpage:_ ->
           for round = 1 to 10 do
             Numa_sim.Api.write ~count:32 (data.System.base_vpage + (round mod 4));
             Numa_sim.Api.barrier barrier
           done))
  done;
  System.run sys

let bench_table3 =
  Test.make ~name:"table3/simulation-run-numa"
    (Staged.stage (fun () ->
         ignore (run_small_simulation (System.Move_limit { threshold = 4 }))))

(* Table 4 kernel: the same run under all-global (the baseline whose system
   time the table differences against). *)
let bench_table4 =
  Test.make ~name:"table4/simulation-run-all-global"
    (Staged.stage (fun () -> ignore (run_small_simulation System.All_global)))

(* Optimal-study kernel: the per-page DP over a synthetic trace. *)
let bench_optimal =
  let config = Numa_machine.Config.ace ~n_cpus:4 () in
  let events =
    List.init 64 (fun i ->
        {
          System.at = float_of_int i;
          cpu = i mod 4;
          tid = i mod 4;
          vpage = 0;
          kind =
            (if i mod 3 = 0 then Numa_machine.Access.Store else Numa_machine.Access.Load);
          count = 16;
          where = Numa_machine.Location.In_global;
          region = "bench";
        })
  in
  Test.make ~name:"optimal/per-page-dp"
    (Staged.stage (fun () -> ignore (Numa_trace.Optimal.page_optimal_ns ~config events)))

(* Serving-latency kernel: one histogram add per run, over a warm table of
   clustered microsecond latencies (what serve records twice per request). *)
let bench_histogram =
  let rng = Numa_util.Prng.create ~seed:1L in
  let keys = Array.init 1024 (fun _ -> 900 + Numa_util.Prng.int rng 200) in
  let h = Numa_util.Histogram.create () in
  Array.iter (Numa_util.Histogram.add h) keys;
  let i = ref 0 in
  Test.make ~name:"histogram/add-clustered"
    (Staged.stage (fun () ->
         i := (!i + 1) land 1023;
         Numa_util.Histogram.add h keys.(!i)))

(* Trace-export kernel: streaming a 1000-event Chrome trace to a file. *)
let bench_trace_save =
  let tr = Numa_obs.Chrome_trace.create ~n_cpus:4 in
  for i = 0 to 999 do
    Numa_obs.Chrome_trace.record tr ~ts:(float_of_int (i * 250))
      (if i mod 2 = 0 then
         Numa_obs.Event.Refs
           { cpu = i mod 4; n = 16; write = i mod 3 = 0; loc = Numa_obs.Event.Local; node = i mod 4 }
       else
         Numa_obs.Event.Request_served
           {
             client = i;
             key = i * 7;
             cpu = i mod 4;
             queue_ns = float_of_int i *. 1.5;
             service_ns = 2_000.25;
           })
  done;
  let path = Filename.temp_file "bench-trace" ".json" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  Test.make ~name:"chrome-trace/save"
    (Staged.stage (fun () -> Numa_obs.Chrome_trace.save tr path))

let micro_tests =
  [
    bench_table1; bench_table2; bench_figure1; bench_figure2; bench_table3;
    bench_table4; bench_optimal; bench_histogram; bench_trace_save;
  ]

let run_micro () =
  print_endline "=== Micro-benchmarks (Bechamel, monotonic clock) ===";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ~stabilize:true
      ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ estimate ] -> Printf.printf "%-40s %12.1f ns/run\n" name estimate
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
        analysed)
    micro_tests;
  print_newline ()

let () =
  reproduce ();
  if Sys.getenv_opt "BENCH_SKIP_MICRO" <> Some "1" then run_micro ()
