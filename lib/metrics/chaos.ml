open Numa_util
module Sys_ = Numa_system.System
module Plan = Numa_faults.Plan

type scenario = { name : string; plan : Plan.t }

let scenario name spec =
  match Plan.of_string spec with
  | Ok plan -> { name; plan }
  | Error msg -> invalid_arg (Printf.sprintf "Chaos.scenario %s: %s" name msg)

(* The default fault matrix. Times are milliseconds of simulated time; the
   Table 4 programs run for a few hundred, so everything lands early enough
   to shape most of the run. Every plan fits a machine with two CPU nodes,
   which is what the CI smoke corner provides. *)
let default_scenarios () =
  [
    scenario "healthy" "";
    scenario "node-offline" "node-offline:1@5";
    scenario "node-flap" "node-offline:1@5,node-online:1@40";
    scenario "link-degrade" "link-degrade:0:1:8@5..80";
    scenario "frame-squeeze" "frame-squeeze:0:0.25@5,frame-squeeze:1:0.25@5";
    scenario "spurious-shootdowns" "spurious-shootdown:0.5";
    scenario "storm"
      "node-offline:1@5,frame-squeeze:0:0.5@10,link-degrade:0:1:4@5..60,\
       spurious-shootdown:0.2";
  ]

type cell = {
  app_name : string;
  gamma : float;  (** faulted T_numa over the {e intact} machine's T_local *)
  user_s : float;
  r : Numa_system.Report.t;  (** the faulted run's report *)
}

type row = {
  scenario : scenario;
  cells : cell list;
  mean_gamma : float;
  faults_injected : int;
  node_drains : int;
  drained_pages : int;
  reclaim_retries : int;
  spurious_shootdowns : int;
  invariant_checks : int;
  invariant_violations : int;
}

let sum_robustness cells f =
  Sweep.sum
    (fun c -> match c.r.Numa_system.Report.robustness with None -> 0 | Some rb -> f rb)
    cells

let run ?jobs ?apps ?scenarios ?(spec = Runner.default_spec) () =
  let apps = match apps with Some l -> l | None -> Numa_apps.Registry.table4 in
  let scenarios =
    match scenarios with Some l -> l | None -> default_scenarios ()
  in
  if apps = [] then invalid_arg "Chaos.run: no apps";
  if scenarios = [] then invalid_arg "Chaos.run: no scenarios";
  (* One clean T_local per app prices the intact machine; then the whole
     scenario x app product fans out. Every faulted run is paranoid, so the
     invariant checker rides along with every injected fault batch AND the
     daemon tick — gamma numbers from a run that went incoherent would be
     worthless. *)
  let t_locals =
    Parallel.map ?jobs
      (fun app ->
        Numa_system.Report.total_user_s
          (Runner.run app
             {
               spec with
               Runner.n_cpus = 1;
               nthreads = 1;
               faults = Plan.empty;
               paranoid = false;
             }))
      apps
  in
  Sweep.grid ?jobs scenarios (List.combine apps t_locals) (fun s (app, tl) ->
      let r = Runner.run app { spec with Runner.faults = s.plan; paranoid = true } in
      let user_s = Numa_system.Report.total_user_s r in
      {
        app_name = app.Numa_apps.App_sig.name;
        gamma = (if tl > 0. then user_s /. tl else nan);
        user_s;
        r;
      })
  |> List.map (fun (scenario, cells) ->
         let open Numa_system.Report in
         {
           scenario;
           cells;
           mean_gamma = Sweep.mean (List.map (fun c -> c.gamma) cells);
           faults_injected = sum_robustness cells (fun rb -> rb.faults_injected);
           node_drains = sum_robustness cells (fun rb -> rb.node_drains);
           drained_pages = sum_robustness cells (fun rb -> rb.drained_pages);
           reclaim_retries = sum_robustness cells (fun rb -> rb.reclaim_retries);
           spurious_shootdowns = sum_robustness cells (fun rb -> rb.spurious_shootdowns);
           invariant_checks = Sweep.sum (fun c -> fst (Sweep.audits c.r)) cells;
           invariant_violations = Sweep.sum (fun c -> snd (Sweep.audits c.r)) cells;
         })

let total_violations rows = Sweep.sum (fun r -> r.invariant_violations) rows

let render ~topology rows =
  let apps =
    match rows with [] -> [] | r :: _ -> List.map (fun c -> c.app_name) r.cells
  in
  let gamma_of i r = Text_table.cell_f2 (List.nth r.cells i).gamma in
  Printf.sprintf
    "Chaos sweep on %s: per-app and mean gamma under injected faults \
     (T_numa/T_local against the intact machine; the healthy row is the \
     fault-free reference). %d invariant violations across the matrix.\n%s"
    topology (total_violations rows)
    Text_table.(
      of_rows rows
        ~columns:
          ((("Scenario", Left, fun r -> r.scenario.name)
           :: List.mapi (fun i a -> (a, Right, gamma_of i)) apps)
          @ [
              ("mean gamma", Right, fun r -> cell_f2 r.mean_gamma);
              ("faults", Right, fun r -> cell_int r.faults_injected);
              ("drains", Right, fun r -> cell_int r.node_drains);
              ("reclaims", Right, fun r -> cell_int r.reclaim_retries);
              ("violations", Right, fun r -> cell_int r.invariant_violations);
            ]))

let to_json ~topology rows : Numa_obs.Json.t =
  let open Numa_obs.Json in
  Obj
    [
      ("topology", String topology);
      ("total_violations", Int (total_violations rows));
      ( "scenarios",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("scenario", String r.scenario.name);
                   ("plan", String (Plan.to_string r.scenario.plan));
                   ("mean_gamma", Float r.mean_gamma);
                   ("faults_injected", Int r.faults_injected);
                   ("node_drains", Int r.node_drains);
                   ("drained_pages", Int r.drained_pages);
                   ("reclaim_retries", Int r.reclaim_retries);
                   ("spurious_shootdowns", Int r.spurious_shootdowns);
                   ("invariant_checks", Int r.invariant_checks);
                   ("invariant_violations", Int r.invariant_violations);
                   ( "apps",
                     List
                       (List.map
                          (fun c ->
                            Obj
                              [
                                ("app", String c.app_name);
                                ("gamma", Float c.gamma);
                                ("user_s", Float c.user_s);
                                ("report", Numa_system.Report.to_json c.r);
                              ])
                          r.cells) );
                 ])
             rows) );
    ]
