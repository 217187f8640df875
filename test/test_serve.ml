(* The served-traffic workload family: the synthetic samplers behind it
   (zipf popularity, bursty Poisson arrivals), the engine's open-loop
   timer, and the serve app end to end — the serving report section, its
   JSON round-trip, run determinism, and the policy tail-latency spread
   the serve sweep measures. *)

open Numa_util
module Dist = Numa_util.Dist
module Engine = Numa_sim.Engine
module Api = Numa_sim.Api
module Memory_iface = Numa_sim.Memory_iface
module Config = Numa_machine.Config
module Report = Numa_system.Report
module Runner = Numa_metrics.Runner
module Serve = Numa_apps.Serve

(* --- samplers ---------------------------------------------------------------------- *)

let test_zipf_deterministic () =
  let draw () =
    let z = Dist.zipf ~n:64 ~theta:0.9 in
    let p = Prng.create ~seed:7L in
    Array.init 500 (fun _ -> Dist.zipf_draw z p)
  in
  Alcotest.(check (array int)) "same seed, same draws" (draw ()) (draw ())

let test_zipf_mass_normalised () =
  let z = Dist.zipf ~n:100 ~theta:1.1 in
  let total = ref 0. in
  for k = 0 to 99 do
    total := !total +. Dist.zipf_mass z k
  done;
  Alcotest.(check (float 1e-9)) "masses sum to 1" 1.0 !total;
  Alcotest.(check bool) "mass is rank-decreasing" true
    (Dist.zipf_mass z 0 > Dist.zipf_mass z 1
    && Dist.zipf_mass z 1 > Dist.zipf_mass z 50)

(* [Dist.zipf_draw] scans forward from a guide table; the reference is
   the inverse-CDF binary search on the same cumulative table, built the
   same way, and on the same uniform draw, read from a copy of the
   generator. A nan theta, which [--zipf] lets through, makes every cdf
   entry but the last nan, and the search then gives n - 1. *)
let test_zipf_draw_matches_binary_search () =
  let reference_cdf ~n ~theta =
    let cdf = Array.make n 0. and acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
      cdf.(i) <- !acc
    done;
    let cdf = Array.map (fun c -> c /. !acc) cdf in
    cdf.(n - 1) <- 1.;
    cdf
  in
  let smallest_above cdf u =
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
  in
  List.iter
    (fun theta ->
      List.iter
        (fun n ->
          let z = Dist.zipf ~n ~theta and cdf = reference_cdf ~n ~theta in
          let p = Prng.create ~seed:(Int64.of_int n) in
          for _ = 1 to 100_000 do
            let u = Prng.float (Prng.copy p) 1.0 in
            let k = Dist.zipf_draw z p in
            if k <> smallest_above cdf u then
              Alcotest.failf "theta %g, n %d, u %h: draw %d, binary search %d" theta n u k
                (smallest_above cdf u)
          done)
        [ 1; 2; 64; 2048 ])
    [ 0.; 0.9; 1.5; Float.nan ]

(* A chi-squared-style check: empirical counts against the exact masses.
   With 20000 draws over 16 keys the statistic is ~chi2(15); 60 is far
   beyond any plausible quantile (p < 1e-6) yet robust to seed choice. *)
let test_zipf_frequencies_match_mass () =
  let n = 16 and draws = 20_000 in
  let z = Dist.zipf ~n ~theta:0.8 in
  let p = Prng.create ~seed:11L in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Dist.zipf_draw z p in
    counts.(k) <- counts.(k) + 1
  done;
  let chi2 = ref 0. in
  for k = 0 to n - 1 do
    let expect = float_of_int draws *. Dist.zipf_mass z k in
    let d = float_of_int counts.(k) -. expect in
    chi2 := !chi2 +. (d *. d /. expect)
  done;
  if !chi2 > 60. then
    Alcotest.failf "zipf chi-squared statistic %.1f (expected < 60)" !chi2;
  (* The skew must actually be visible: rank 0 beats the tail soundly. *)
  Alcotest.(check bool) "head key dominates last" true
    (counts.(0) > 3 * counts.(n - 1))

let test_arrival_times_strictly_increasing () =
  let a = Dist.arrival ~rate_per_s:200_000. ~burst:4. () in
  let ts = Dist.arrival_times a (Prng.create ~seed:3L) ~n:5_000 in
  Array.iteri
    (fun i t ->
      if i > 0 && t <= ts.(i - 1) then
        Alcotest.failf "arrival %d not after its predecessor" i)
    ts

let test_arrival_rate_plausible () =
  (* Open-loop Poisson at 100k/s with 4x bursts 10 ms of every 60 ms:
     effective mean rate = 100k * (50 + 4*10)/60 = 150k/s. The empirical
     rate over 30k arrivals should land within a few percent. *)
  let a = Dist.arrival ~rate_per_s:100_000. ~burst:4. () in
  let n = 30_000 in
  let ts = Dist.arrival_times a (Prng.create ~seed:5L) ~n in
  let rate = float_of_int (n - 1) /. (ts.(n - 1) -. ts.(0)) *. 1e9 in
  if rate < 135_000. || rate > 165_000. then
    Alcotest.failf "empirical arrival rate %.0f/s outside [135k, 165k]" rate

let test_arrival_spec_roundtrip () =
  (match Dist.arrival_of_string "250000:8" with
  | Error e -> Alcotest.fail e
  | Ok a ->
      Alcotest.(check string) "round-trips" "250000:8"
        (Dist.arrival_to_string a));
  match Dist.arrival_of_string "fast:please" with
  | Ok _ -> Alcotest.fail "junk spec parsed"
  | Error _ -> ()

(* --- the open-loop timer ----------------------------------------------------------- *)

let test_sleep_until_parks_without_charging () =
  let machine = Config.ace ~n_cpus:2 () in
  let memory = Memory_iface.flat machine in
  let e =
    Engine.create (Engine.default_config ~n_cpus:2) ~memory ~scheduler:Engine.Affinity
  in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"t" (fun () ->
         Api.sleep_until ~ns:2e6;
         Api.compute 1e5));
  Engine.run e;
  (* The park itself costs nothing; the wait is idle time, so elapsed is
     deadline + compute while user time is the compute alone. *)
  Alcotest.(check (float 1.)) "user = just the compute" 1e5 (Engine.user_ns e ~cpu:0);
  Alcotest.(check (float 1.)) "elapsed = deadline + compute" 2.1e6 (Engine.elapsed_ns e)

let test_sleep_until_past_deadline_is_noop () =
  let machine = Config.ace ~n_cpus:2 () in
  let memory = Memory_iface.flat machine in
  let e =
    Engine.create (Engine.default_config ~n_cpus:2) ~memory ~scheduler:Engine.Affinity
  in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"t" (fun () ->
         Api.compute 5e6;
         Api.sleep_until ~ns:1e6;
         (* already behind: resumes immediately *)
         Api.compute 1e6));
  Engine.run e;
  Alcotest.(check (float 1.)) "no backwards time travel" 6e6 (Engine.elapsed_ns e)

(* --- the serve app end to end ------------------------------------------------------ *)

let small_spec =
  {
    Runner.default_spec with
    Runner.scale = 0.02;
    n_cpus = 4;
    nthreads = 4;
  }

let serving_of r =
  match r.Report.serving with
  | Some s -> s
  | None -> Alcotest.fail "serve run produced no serving section"

let test_serve_report_section () =
  let r = Runner.run Serve.app small_spec in
  let s = serving_of r in
  Alcotest.(check int) "every request served"
    (Serve.requests_for small_spec.Runner.scale)
    s.Report.requests;
  Alcotest.(check int) "workers cover the shards" 4
    (Array.length s.Report.per_worker_served);
  Alcotest.(check int) "per-worker counts sum to the total" s.Report.requests
    (Array.fold_left ( + ) 0 s.Report.per_worker_served);
  let ordered =
    s.Report.p50_us <= s.Report.p95_us
    && s.Report.p95_us <= s.Report.p99_us
    && s.Report.p99_us <= s.Report.p999_us
    && s.Report.p999_us <= s.Report.max_us
  in
  Alcotest.(check bool) "percentiles are ordered" true ordered;
  Alcotest.(check bool) "positive throughput" true (s.Report.throughput_rps > 0.);
  Alcotest.(check bool) "queueing never exceeds total latency" true
    (s.Report.queue_mean_us <= s.Report.mean_us)

let test_serve_json_roundtrip () =
  let r = Runner.run Serve.app small_spec in
  let s = serving_of r in
  let text = Numa_obs.Json.to_string (Report.to_json r) in
  match Numa_obs.Json.parse text with
  | Error e -> Alcotest.failf "report JSON does not parse back: %s" e
  | Ok json -> (
      match Numa_obs.Json.member json "serving" with
      | None -> Alcotest.fail "no serving key in report JSON"
      | Some sv ->
          let int_field name =
            match Option.bind (Numa_obs.Json.member sv name) Numa_obs.Json.to_float with
            | Some f -> int_of_float f
            | None -> Alcotest.failf "serving.%s missing" name
          in
          Alcotest.(check int) "requests round-trip" s.Report.requests
            (int_field "requests");
          Alcotest.(check int) "p99 round-trips" s.Report.p99_us (int_field "p99_us");
          Alcotest.(check int) "p99.9 round-trips" s.Report.p999_us
            (int_field "p999_us"))

let test_batch_apps_have_no_serving_section () =
  let app = Option.get (Numa_apps.Registry.find "primes1") in
  let r = Runner.run app { small_spec with Runner.scale = 0.1 } in
  Alcotest.(check bool) "batch report omits serving" true (r.Report.serving = None)

let test_serve_run_deterministic () =
  let once () =
    Numa_obs.Json.to_string (Report.to_json (Runner.run Serve.app small_spec))
  in
  Alcotest.(check string) "byte-identical reports" (once ()) (once ())

let test_policy_tail_spread () =
  (* The sweep's reason to exist: identical offered load, different
     placement policy, visibly different tail. Never-pin turns the shared
     session page into a migration ping-pong (~1 ms per copy), so its p99
     must sit far above all-global's; move-limit stops the bleeding. *)
  let run policy =
    serving_of (Runner.run Serve.app { small_spec with Runner.policy })
  in
  let ml = run (Numa_system.System.Move_limit { threshold = 4 }) in
  let ag = run Numa_system.System.All_global in
  let np = run Numa_system.System.Never_pin in
  Alcotest.(check bool) "never-pin tail >= 10x all-global tail" true
    (np.Report.p99_us > 10 * ag.Report.p99_us);
  Alcotest.(check bool) "move-limit contains the never-pin pathology" true
    (ml.Report.p99_us < np.Report.p99_us)

(* With one worker per CPU, a bare deadline serves exactly like the plain
   tier: the same serving section and CPU times. It only adds a
   Deadline_push and a Deadline_pop per request, which take no time. *)
let test_deadline_only_serves_like_plain () =
  let plain = Runner.run Serve.app small_spec in
  let observed =
    Runner.run
      (Serve.make ~resilience:(Numa_apps.Resilience.make ~deadline_us:1_500 ()) ())
      small_spec
  in
  let serving r =
    Numa_obs.Json.to_string (Option.get (Numa_obs.Json.member (Report.to_json r) "serving"))
  in
  Alcotest.(check string) "same serving section" (serving plain) (serving observed);
  Alcotest.(check (array (float 0.))) "same user time" plain.Report.user_ns_per_cpu
    observed.Report.user_ns_per_cpu;
  Alcotest.(check (array (float 0.))) "same system time" plain.Report.system_ns_per_cpu
    observed.Report.system_ns_per_cpu;
  Alcotest.(check int) "two zero-time ops per request"
    (2 * Serve.requests_for small_spec.Runner.scale)
    (observed.Report.n_events - plain.Report.n_events)

let suite =
  [
    Alcotest.test_case "zipf draws deterministic" `Quick test_zipf_deterministic;
    Alcotest.test_case "zipf draw matches a binary search" `Quick
      test_zipf_draw_matches_binary_search;
    Alcotest.test_case "zipf mass normalised" `Quick test_zipf_mass_normalised;
    Alcotest.test_case "zipf frequencies match mass" `Quick
      test_zipf_frequencies_match_mass;
    Alcotest.test_case "arrival times strictly increasing" `Quick
      test_arrival_times_strictly_increasing;
    Alcotest.test_case "arrival rate plausible" `Quick test_arrival_rate_plausible;
    Alcotest.test_case "arrival spec round-trip" `Quick test_arrival_spec_roundtrip;
    Alcotest.test_case "sleep_until parks without charging" `Quick
      test_sleep_until_parks_without_charging;
    Alcotest.test_case "sleep_until past deadline is a no-op" `Quick
      test_sleep_until_past_deadline_is_noop;
    Alcotest.test_case "serve report section" `Quick test_serve_report_section;
    Alcotest.test_case "serve JSON round-trip" `Quick test_serve_json_roundtrip;
    Alcotest.test_case "batch apps omit serving" `Quick
      test_batch_apps_have_no_serving_section;
    Alcotest.test_case "serve run deterministic" `Quick test_serve_run_deterministic;
    Alcotest.test_case "policy tail spread" `Quick test_policy_tail_spread;
    Alcotest.test_case "deadline-only serves like plain" `Quick
      test_deadline_only_serves_like_plain;
  ]
