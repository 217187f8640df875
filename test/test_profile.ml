(* The profiler's contract: every virtual nanosecond the engine puts on a
   CPU clock is attributed to exactly one category (conservation), the
   data is deterministic, and turning the profiler off leaves reports
   byte-identical. Plus the bench-compare regression gate. *)

module System = Numa_system.System
module Report = Numa_system.Report
module Engine = Numa_sim.Engine
module Profile = Numa_obs.Profile
module App_sig = Numa_apps.App_sig
module BC = Numa_metrics.Bench_compare

let qcheck t = QCheck_alcotest.to_alcotest t

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let run_app ?(profiling = true) ?(policy = System.Move_limit { threshold = 4 })
    ?(config = Numa_machine.Config.ace ~n_cpus:4 ()) ?(scale = 0.03) name =
  let app = Option.get (Numa_apps.Registry.find name) in
  let sys = System.create ~policy ~profiling ~config () in
  app.App_sig.setup sys { App_sig.nthreads = 4; scale; seed = 42L };
  let report = System.run sys in
  (sys, report)

let check_conserved ~label sys =
  let engine = System.engine sys in
  let p =
    match System.profile sys with
    | Some p -> p
    | None -> Alcotest.failf "%s: no profiler attached" label
  in
  let n_cpus = (System.config sys).Numa_machine.Config.n_cpus in
  let clocks = Array.init n_cpus (fun cpu -> Engine.clock_ns engine ~cpu) in
  match Profile.check_conservation p ~clocks ~elapsed_ns:(Engine.elapsed_ns engine) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: conservation violated: %s" label msg

(* Acceptance criterion: conservation on every Table 4 application. *)
let test_conservation_table4 () =
  List.iter
    (fun (app : App_sig.t) ->
      let sys, _ = run_app app.App_sig.name in
      check_conserved ~label:app.App_sig.name sys)
    Numa_apps.Registry.table4

(* And on the configurations the deterministic sweep does not cover:
   random app x policy x topology (the qcheck satellite). *)
let conservation_arbitrary =
  let apps = [ "imatmult"; "primes3"; "gfetch"; "parmult"; "plytrace"; "syscall-mix" ] in
  let policies =
    [
      ("move-limit:0", System.Move_limit { threshold = 0 });
      ("move-limit:4", System.Move_limit { threshold = 4 });
      ("never-pin", System.Never_pin);
      ("all-global", System.All_global);
    ]
  in
  let topologies = Numa_machine.Config.builtin_topologies in
  let gen =
    QCheck.Gen.(
      triple (oneofl apps) (oneofl policies) (oneofl topologies))
  in
  QCheck.make
    ~print:(fun (a, (p, _), t) -> Printf.sprintf "%s / %s / %s" a p t)
    gen

let prop_conservation =
  QCheck.Test.make ~name:"profile conservation (app x policy x topology)" ~count:12
    conservation_arbitrary (fun (app, (_, policy), topology) ->
      let config =
        Option.get (Numa_machine.Config.of_topology_name ~n_cpus:4 topology)
      in
      let sys, report = run_app ~policy ~config ~scale:0.02 app in
      check_conserved ~label:(app ^ "/" ^ topology) sys;
      report.Report.profile <> None)

let fingerprint (r : Report.t) =
  ( r.Report.total_user_ns,
    r.Report.total_system_ns,
    Report.total_refs r.Report.refs_all,
    r.Report.numa_moves,
    r.Report.pins,
    r.Report.n_events )

(* Attaching the profiler must not perturb the simulation, and detaching
   it must remove every trace from the report (the golden tests pin the
   exact unprofiled bytes; this pins the profiled/unprofiled relation). *)
let test_profiling_off_identical () =
  let _, off = run_app ~profiling:false "imatmult" in
  let _, on_ = run_app ~profiling:true "imatmult" in
  Alcotest.(check bool) "same simulation" true (fingerprint off = fingerprint on_);
  Alcotest.(check bool) "no profile section when off" false
    (Numa_obs.Json.has_key (Numa_obs.Json.to_string (Report.to_json off)) ~key:"profile");
  Alcotest.(check bool) "profile section when on" true
    (Numa_obs.Json.has_key (Numa_obs.Json.to_string (Report.to_json on_)) ~key:"profile")

let test_snapshot_content () =
  let sys, report = run_app "primes3" in
  let p = Option.get (System.profile sys) in
  let s = Profile.snapshot ~top:5 p in
  let engine = System.engine sys in
  let elapsed = Engine.elapsed_ns engine in
  Alcotest.(check (float 1e-3)) "attributed = n_cpus x elapsed"
    (float_of_int s.Profile.n_cpus *. elapsed)
    s.Profile.attributed_ns_total;
  let labels = List.map (fun (n : Profile.tree_node) -> n.Profile.label) s.Profile.categories in
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " category present") true (List.mem l labels))
    [ "refs"; "kernel"; "compute" ];
  Alcotest.(check bool) "hot pages bounded" true (List.length s.Profile.hot_pages <= 5);
  Alcotest.(check bool) "hot pages found" true (s.Profile.hot_pages <> []);
  Alcotest.(check bool) "hot threads found" true (s.Profile.hot_threads <> []);
  (* primes3 serialises on a work-queue lock; the profiler must see it. *)
  Alcotest.(check bool) "hot locks found" true (s.Profile.hot_locks <> []);
  (match report.Report.profile with
  | None -> Alcotest.fail "report lost the profile section"
  | Some rs ->
      Alcotest.(check (float 1e-3)) "report snapshot agrees"
        s.Profile.attributed_ns_total rs.Profile.attributed_ns_total);
  let rendered = Profile.render s in
  Alcotest.(check bool) "render has header" true
    (String.length rendered > 0 && String.sub rendered 0 9 = "# profile");
  (* Every folded line is "path space number". *)
  String.split_on_char '\n' (Profile.folded s)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.failf "folded line without value: %s" line
         | Some i -> (
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             match float_of_string_opt v with
             | Some f when f > 0. -> ()
             | _ -> Alcotest.failf "folded line with bad value: %s" line));
  (* The JSON export parses back. *)
  match Numa_obs.Json.parse (Numa_obs.Json.to_string (Profile.snapshot_to_json s)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "snapshot JSON does not parse: %s" msg

let test_profile_deterministic () =
  let snap () =
    let sys, _ = run_app "gfetch" in
    Profile.snapshot (Option.get (System.profile sys))
  in
  let a = snap () and b = snap () in
  Alcotest.(check string) "profile JSON is bit-identical across reruns"
    (Numa_obs.Json.to_string (Profile.snapshot_to_json a))
    (Numa_obs.Json.to_string (Profile.snapshot_to_json b))

(* --- bench-compare ------------------------------------------------------ *)

let summary ?(events = Some 1000.) ?(gamma = 1.2) ?(t_numa = 10.) () =
  {
    BC.scale = 0.25;
    cpus = 4;
    events_per_sec = events;
    apps = [ { BC.app = "imatmult"; gamma; t_numa_s = t_numa } ];
  }

let lines_exn = function
  | Ok lines -> lines
  | Error msg -> Alcotest.failf "diff unexpectedly not comparable: %s" msg

let test_bench_compare_directions () =
  let baseline = summary () in
  (* Throughput DROP regresses; gamma/time RISE regresses. *)
  let slower = summary ~events:(Some 400.) () in
  let d = lines_exn (BC.diff ~baseline ~current:slower ~max_regress:25.) in
  Alcotest.(check bool) "throughput drop flagged" true (BC.regressed d);
  let faster = summary ~events:(Some 2000.) () in
  Alcotest.(check bool) "throughput rise fine" false
    (BC.regressed (lines_exn (BC.diff ~baseline ~current:faster ~max_regress:25.)));
  let worse_gamma = summary ~gamma:2.0 () in
  Alcotest.(check bool) "gamma rise flagged" true
    (BC.regressed (lines_exn (BC.diff ~baseline ~current:worse_gamma ~max_regress:25.)));
  let slow_app = summary ~t_numa:20. () in
  let d = lines_exn (BC.diff ~baseline ~current:slow_app ~max_regress:25.) in
  Alcotest.(check bool) "t_numa rise flagged" true (BC.regressed d);
  Alcotest.(check bool) "render marks the changed row" true
    (contains ~sub:"CHANGED" (BC.render d));
  let d = lines_exn (BC.diff ~baseline ~current:slower ~max_regress:25.) in
  Alcotest.(check bool) "render marks the throughput row" true
    (contains ~sub:"REGRESSED" (BC.render d));
  (* Gamma and t_numa are deterministic: --max-regress does not cover them,
     so the smallest move either way fails even at CI's 90% tolerance. *)
  let flagged current = BC.regressed (lines_exn (BC.diff ~baseline ~current ~max_regress:90.)) in
  Alcotest.(check bool) "0.1% gamma rise flagged at 90%" true
    (flagged (summary ~gamma:(1.2 *. 1.001) ()));
  Alcotest.(check bool) "gamma drop flagged at 90%" true
    (flagged (summary ~gamma:1.0 ~t_numa:8. ()));
  Alcotest.(check bool) "throughput within tolerance passes at 90%" false
    (flagged (summary ~events:(Some 200.) ()))

let test_bench_compare_tolerance_and_missing () =
  let baseline = summary () in
  (* Within the threshold: a 20% drop at max-regress 25 passes. *)
  let close = summary ~events:(Some 800.) () in
  Alcotest.(check bool) "within tolerance" false
    (BC.regressed (lines_exn (BC.diff ~baseline ~current:close ~max_regress:25.)));
  (* Old records without events/sec: the metric is skipped, apps still gate. *)
  let old = summary ~events:None () in
  let d = lines_exn (BC.diff ~baseline:old ~current:(summary ()) ~max_regress:25.) in
  Alcotest.(check int) "throughput skipped" 2 (List.length d);
  (* Different configurations refuse to compare. *)
  (match BC.diff ~baseline ~current:{ baseline with BC.cpus = 8 } ~max_regress:25. with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cpu mismatch accepted");
  match BC.diff ~baseline ~current:{ baseline with BC.scale = 1.0 } ~max_regress:25. with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scale mismatch accepted"

let test_bench_compare_roundtrip () =
  let s = summary () in
  match BC.summary_of_json (BC.to_json s) with
  | Error msg -> Alcotest.failf "compact baseline does not parse back: %s" msg
  | Ok s' ->
      Alcotest.(check bool) "round trip" true (s = s');
      (* And the full bench-record spelling (times nested) parses too. *)
      let full =
        Numa_obs.Json.Obj
          [
            ("scale", Numa_obs.Json.Float 0.25);
            ("cpus", Numa_obs.Json.Int 4);
            ("events_per_sec", Numa_obs.Json.Float 1000.);
            ( "measurements",
              Numa_obs.Json.List
                [
                  Numa_obs.Json.Obj
                    [
                      ("app", Numa_obs.Json.String "imatmult");
                      ("gamma", Numa_obs.Json.Float 1.2);
                      ( "times",
                        Numa_obs.Json.Obj
                          [ ("t_numa_s", Numa_obs.Json.Float 10.) ] );
                    ];
                ] );
          ]
      in
      (match BC.summary_of_json full with
      | Error msg -> Alcotest.failf "full record does not parse: %s" msg
      | Ok s'' -> Alcotest.(check bool) "full record agrees" true (s = s''))

let suite =
  [
    Alcotest.test_case "conservation on every Table 4 app" `Quick
      test_conservation_table4;
    qcheck prop_conservation;
    Alcotest.test_case "profiling off leaves reports untouched" `Quick
      test_profiling_off_identical;
    Alcotest.test_case "snapshot content and exports" `Quick test_snapshot_content;
    Alcotest.test_case "profile is deterministic" `Quick test_profile_deterministic;
    Alcotest.test_case "bench-compare regression directions" `Quick
      test_bench_compare_directions;
    Alcotest.test_case "bench-compare tolerance and skips" `Quick
      test_bench_compare_tolerance_and_missing;
    Alcotest.test_case "bench-compare JSON round trip" `Quick
      test_bench_compare_roundtrip;
  ]
