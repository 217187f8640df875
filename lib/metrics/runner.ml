open Numa_machine
module System = Numa_system.System

type run_spec = {
  policy : System.policy_spec;
  n_cpus : int;
  nthreads : int;
  scale : float;
  seed : int64;
  scheduler : Numa_sim.Engine.scheduler_mode;
  unix_master : bool;
  config_tweak : Config.t -> Config.t;
  faults : Numa_faults.Plan.t;
  paranoid : bool;
  profiling : bool;
  victim : Numa_vm.Pageout.victim;
  pt_mode : Pt.mode;
}

let default_spec =
  {
    policy = System.Move_limit { threshold = 4 };
    n_cpus = 7;
    nthreads = 7;
    scale = 1.0;
    seed = 42L;
    scheduler = Numa_sim.Engine.Affinity;
    unix_master = false;
    config_tweak = Fun.id;
    faults = Numa_faults.Plan.empty;
    paranoid = false;
    profiling = false;
    victim = Numa_vm.Pageout.Clock;
    pt_mode = Pt.Off;
  }

let config_for spec = spec.config_tweak (Config.ace ~n_cpus:spec.n_cpus ())

let with_topology spec name =
  if not (List.mem name Config.builtin_topologies) then
    invalid_arg
      (Printf.sprintf "unknown topology %S; known: %s" name
         (String.concat ", " Config.builtin_topologies));
  let topology (c : Config.t) =
    Option.get (Config.of_topology_name ~n_cpus:c.Config.n_cpus name)
  in
  { spec with config_tweak = (fun c -> spec.config_tweak (topology c)) }

let system ?obs (app : Numa_apps.App_sig.t) spec =
  let sys =
    System.create ?obs ~policy:spec.policy ~scheduler:spec.scheduler
      ~unix_master:spec.unix_master ~faults:spec.faults ~paranoid:spec.paranoid
      ~profiling:spec.profiling ~victim:spec.victim ~pt_mode:spec.pt_mode
      ~config:(config_for spec) ()
  in
  app.Numa_apps.App_sig.setup sys
    { Numa_apps.App_sig.nthreads = spec.nthreads; scale = spec.scale; seed = spec.seed };
  sys

let run app spec = System.run (system app spec)

let app_gl (app : Numa_apps.App_sig.t) config =
  if app.Numa_apps.App_sig.fetch_dominated then Config.global_to_local_fetch_ratio config
  else Config.global_to_local_ratio config ~store_fraction:0.45

type measurement = {
  app_name : string;
  times : Model.times;
  gl : float;
  alpha : float;
  beta : float;
  gamma : float;
  r_numa : Numa_system.Report.t;
  r_global : Numa_system.Report.t;
  r_local : Numa_system.Report.t;
}

let measure (app : Numa_apps.App_sig.t) spec =
  let r_numa = run app spec in
  (* The two baselines define the model's reference scale, so they run on
     the healthy machine even when the measured run is faulted — gamma of
     a chaos run is "how much slower than the intact all-local machine". *)
  let clean = { spec with faults = Numa_faults.Plan.empty } in
  let r_global = run app { clean with policy = System.All_global } in
  (* T_local: one thread on a one-processor system, so that every page is
     private and local (section 3.1). *)
  let r_local = run app { clean with n_cpus = 1; nthreads = 1 } in
  let times =
    {
      Model.t_numa = Numa_system.Report.total_user_s r_numa;
      t_global = Numa_system.Report.total_user_s r_global;
      t_local = Numa_system.Report.total_user_s r_local;
    }
  in
  let gl = app_gl app (config_for spec) in
  {
    app_name = app.Numa_apps.App_sig.name;
    times;
    gl;
    alpha = Model.alpha times;
    beta = Model.beta times ~gl;
    gamma = Model.gamma times;
    r_numa;
    r_global;
    r_local;
  }

let measure_many ?jobs apps spec = Parallel.map ?jobs (fun app -> measure app spec) apps

module Json = Numa_obs.Json

let times_to_json (tm : Model.times) =
  Json.Obj
    [
      ("t_numa_s", Json.Float tm.Model.t_numa);
      ("t_global_s", Json.Float tm.Model.t_global);
      ("t_local_s", Json.Float tm.Model.t_local);
    ]
