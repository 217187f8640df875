open Numa_util
module Report = Numa_system.Report
module Plan = Numa_faults.Plan
module R = Numa_apps.Resilience

(* The sweep's machine and traffic are pinned, not inherited: the gate it
   feeds (retry+breaker recovers >= 2x the no-resilience goodput under a
   mid-serving node outage) is an acceptance criterion, so the scenario
   that demonstrates it must not drift with the caller's --cpus/--scale.
   4 shard workers at 11k req/s is ~80% utilisation — enough headroom to
   serve cleanly when intact, no slack to hide an outage backlog. *)
let sweep_cpus = 4
let sweep_scale = 0.05
let deadline_us = 1_500
let arrival () = Dist.arrival ~rate_per_s:11_000. ~burst:1. ()

(* Mid-serving outage with recovery: arrivals span ~100..191 ms, node 1
   dies at 110 ms and returns at 160 ms. The no-resilience tier keeps
   serving its backlog in arrival order and misses deadlines for the rest
   of the run; breakers shed the stale backlog and catch back up. *)
let node_offline_plan = "node-offline:1@110,node-online:1@160"

(* The bus degrade covers the same window. Serve pushes little bus
   traffic, so this scenario measures (honestly) how little a degraded
   interconnect moves an almost-local workload. *)
let link_degrade_plan = "link-degrade:0:1:8@110..160"

(* Squeeze node 1's frame pool to zero before warmup faults anything in:
   shard 1 can never place its pages locally and serves out of global
   memory for the whole run — a permanently slow shard, the classic
   breaker motivation. *)
let frame_squeeze_plan = "frame-squeeze:1:0@0"

type mechanisms = {
  label : string;
  retry : R.retry option;
  hedge : R.hedge option;
  breaker : R.breaker option;
}

let default_retry = { R.max_attempts = 3; base_backoff_ns = 0.2e6; max_backoff_ns = 2e6; jitter = 0.5 }
let default_hedge = { R.factor = 1. }
let default_breaker = { R.failures = 5; cooldown_ns = 5e6 }

let configs () =
  [
    { label = "no-resilience"; retry = None; hedge = None; breaker = None };
    { label = "retry"; retry = Some default_retry; hedge = None; breaker = None };
    {
      label = "retry+hedge";
      retry = Some default_retry;
      hedge = Some default_hedge;
      breaker = None;
    };
    {
      label = "retry+breaker";
      retry = Some default_retry;
      hedge = None;
      breaker = Some default_breaker;
    };
  ]

type scenario = { scenario : string; plan : string }

let scenarios () =
  [
    { scenario = "intact"; plan = "" };
    { scenario = "node-offline"; plan = node_offline_plan };
    { scenario = "link-degrade"; plan = link_degrade_plan };
    { scenario = "frame-squeeze"; plan = frame_squeeze_plan };
  ]

type cell = { config : string; scenario_name : string; r : Report.t }
type row = { name : string; cells : cell list (* one per config, slate order *) }

let plan_of_string s =
  if s = "" then Plan.empty
  else
    match Plan.of_string s with
    | Ok p -> p
    | Error msg -> invalid_arg ("Resilience sweep: bad plan: " ^ msg)

(* The run's resilience section, which [run] checks every cell has. *)
let res c =
  match c.r.Report.resilience with
  | Some res -> res
  | None ->
      invalid_arg
        (Printf.sprintf "Resilience sweep: run %s/%s produced no resilience section"
           c.scenario_name c.config)

let run ?jobs ?(spec = Runner.default_spec) () =
  let spec =
    {
      spec with
      Runner.n_cpus = sweep_cpus;
      nthreads = sweep_cpus;
      scale = sweep_scale;
      paranoid = true;
      config_tweak = Fun.id;
      faults = Plan.empty;
    }
  in
  Sweep.grid ?jobs (scenarios ()) (configs ()) (fun sc c ->
      let resilience = R.make ~deadline_us ?retry:c.retry ?hedge:c.hedge ?breaker:c.breaker () in
      let app = Numa_apps.Serve.make ~arrival:(arrival ()) ~resilience () in
      let r = Runner.run app { spec with Runner.faults = plan_of_string sc.plan } in
      let cell = { config = c.label; scenario_name = sc.scenario; r } in
      ignore (res cell);
      cell)
  |> List.map (fun (sc, cells) -> { name = sc.scenario; cells })

let all_cells rows = List.concat_map (fun row -> row.cells) rows

let violations c = snd (Sweep.audits c.r) + (res c).Report.conservation_violations
let total_violations rows = Sweep.sum violations (all_cells rows)

let find_cell rows ~scenario ~config =
  match List.find_opt (fun row -> row.name = scenario) rows with
  | None -> None
  | Some row -> List.find_opt (fun c -> c.config = config) row.cells

(* A cell's goodput over the same config's on the intact machine — the
   "recovered" column; [None] without a positive intact goodput. *)
let vs_intact rows c =
  match find_cell rows ~scenario:"intact" ~config:c.config with
  | Some i when (res i).Report.goodput_rps > 0. ->
      Some ((res c).Report.goodput_rps /. (res i).Report.goodput_rps)
  | Some _ | None -> None

type gate = {
  no_resilience_goodput : float;
  retry_breaker_goodput : float;
  ratio : float;  (** retry+breaker over no-resilience, node-offline scenario *)
}

(* The CI acceptance gate: under the node-offline scenario, retry+breaker
   must keep at least twice the goodput of the no-resilience tier on the
   same seed. *)
let node_offline_gate rows =
  let goodput config =
    match find_cell rows ~scenario:"node-offline" ~config with
    | Some c -> (res c).Report.goodput_rps
    | None -> nan
  in
  let base = goodput "no-resilience" in
  let rb = goodput "retry+breaker" in
  {
    no_resilience_goodput = base;
    retry_breaker_goodput = rb;
    ratio = (if base > 0. then rb /. base else nan);
  }

let retries_started (res : Report.resilience) =
  let total = Array.fold_left ( + ) 0 res.Report.attempts_started in
  let firsts = if Array.length res.Report.attempts_started > 0 then res.Report.attempts_started.(0) else 0 in
  max 0 (total - firsts - res.Report.hedges)

let render rows =
  let count f c = Text_table.cell_int (f (res c)) in
  let gate = node_offline_gate rows in
  Printf.sprintf
    "Resilience sweep: %d shard workers at 11k req/s open-loop, %d us deadline, \
     identical offered load and seed in every cell. \"vs intact\" compares each \
     config's goodput (in-deadline completions per second of serving span) to \
     its own intact run. Node-offline recovery: retry+breaker holds %.0f \
     goodput/s against %.0f without resilience (%.2fx, gate >= 2x). %d \
     invariant/conservation violations across the grid.\n%s"
    sweep_cpus deadline_us gate.retry_breaker_goodput gate.no_resilience_goodput
    gate.ratio (total_violations rows)
    Text_table.(
      of_rows (all_cells rows)
        ~columns:
          [
            ("Scenario", Left, fun c -> c.scenario_name);
            ("Config", Left, fun c -> c.config);
            ("SLO %", Right, fun c -> Printf.sprintf "%.1f" (res c).Report.slo_pct);
            ("goodput/s", Right, fun c -> Printf.sprintf "%.0f" (res c).Report.goodput_rps);
            ( "vs intact",
              Right,
              fun c ->
                match vs_intact rows c with Some x -> Printf.sprintf "%.2fx" x | None -> "-" );
            ("timeouts", Right, count (fun r -> r.Report.timeouts));
            ("retries", Right, count retries_started);
            ( "hedges (wins)",
              Right,
              fun c ->
                let s = res c in
                Printf.sprintf "%d (%d)" s.Report.hedges s.Report.hedge_wins );
            ("shed", Right, count (fun r -> r.Report.shed));
            ("opens", Right, count (fun r -> r.Report.breaker_opens));
            ("failovers", Right, count (fun r -> r.Report.shard_failovers));
            ("violations", Right, fun c -> cell_int (violations c));
          ])

let to_json rows : Numa_obs.Json.t =
  let open Numa_obs.Json in
  let gate = node_offline_gate rows in
  let cell_json c =
    Obj
      [
        ("config", String c.config);
        ("scenario", String c.scenario_name);
        ("resilience", Report.resilience_to_json (res c));
        ( "goodput_vs_intact",
          match vs_intact rows c with Some x -> Float x | None -> Null );
        ("user_s", Float (Report.total_user_s c.r));
        ("invariant_checks", Int (fst (Sweep.audits c.r)));
        ("invariant_violations", Int (snd (Sweep.audits c.r)));
        ("report", Report.to_json c.r);
      ]
  in
  Obj
    [
      ("total_violations", Int (total_violations rows));
      ( "node_offline_gate",
        Obj
          [
            ("no_resilience_goodput", Float gate.no_resilience_goodput);
            ("retry_breaker_goodput", Float gate.retry_breaker_goodput);
            ("ratio", Float gate.ratio);
          ] );
      ( "scenarios",
        List
          (List.map
             (fun row ->
               Obj
                 [
                   ("scenario", String row.name);
                   ("configs", List (List.map cell_json row.cells));
                 ])
             rows) );
    ]
