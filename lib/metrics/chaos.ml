open Numa_util
module Sys_ = Numa_system.System
module Plan = Numa_faults.Plan
module Report = Numa_system.Report

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

type cell = { app_name : string; t_local : float; r : Report.t }
type row = { scenario : scenario; cells : cell list }

let gamma c =
  let user_s = Report.total_user_s c.r in
  if c.t_local > 0. then user_s /. c.t_local else nan

let mean_gamma row = Sweep.mean (List.map gamma row.cells)

let robustness f row =
  Sweep.sum
    (fun c -> match c.r.Report.robustness with None -> 0 | Some rb -> f rb)
    row.cells

let audits f row = Sweep.sum (fun c -> f (Sweep.audits c.r)) row.cells

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
        Report.total_user_s
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
  Sweep.grid ?jobs scenarios (List.combine apps t_locals) (fun s (app, t_local) ->
      let r = Runner.run app { spec with Runner.faults = s.plan; paranoid = true } in
      { app_name = app.Numa_apps.App_sig.name; t_local; r })
  |> List.map (fun (scenario, cells) -> { scenario; cells })

let violations = audits snd
let total_violations rows = Sweep.sum violations rows

let render ~topology rows =
  let apps =
    match rows with [] -> [] | r :: _ -> List.map (fun c -> c.app_name) r.cells
  in
  let gamma_of i r = Text_table.cell_f2 (gamma (List.nth r.cells i)) in
  let count f r = Text_table.cell_int (robustness f r) in
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
              ("mean gamma", Right, fun r -> cell_f2 (mean_gamma r));
              ("faults", Right, count (fun rb -> rb.Report.faults_injected));
              ("drains", Right, count (fun rb -> rb.Report.node_drains));
              ("reclaims", Right, count (fun rb -> rb.Report.reclaim_retries));
              ("violations", Right, fun r -> cell_int (violations r));
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
               let total f = Int (robustness f r) in
               Obj
                 [
                   ("scenario", String r.scenario.name);
                   ("plan", String (Plan.to_string r.scenario.plan));
                   ("mean_gamma", Float (mean_gamma r));
                   ("faults_injected", total (fun rb -> rb.Report.faults_injected));
                   ("node_drains", total (fun rb -> rb.Report.node_drains));
                   ("drained_pages", total (fun rb -> rb.Report.drained_pages));
                   ("reclaim_retries", total (fun rb -> rb.Report.reclaim_retries));
                   ("spurious_shootdowns", total (fun rb -> rb.Report.spurious_shootdowns));
                   ("invariant_checks", Int (audits fst r));
                   ("invariant_violations", Int (violations r));
                   ( "apps",
                     List
                       (List.map
                          (fun c ->
                            Obj
                              [
                                ("app", String c.app_name);
                                ("gamma", Float (gamma c));
                                ("user_s", Float (Report.total_user_s c.r));
                                ("report", Report.to_json c.r);
                              ])
                          r.cells) );
                 ])
             rows) );
    ]
