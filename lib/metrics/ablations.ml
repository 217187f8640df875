open Numa_util
module System = Numa_system.System
module Report = Numa_system.Report
module App_sig = Numa_apps.App_sig
module Config = Numa_machine.Config

let app_named name = Option.get (Numa_apps.Registry.find name)
let named = List.filter_map Numa_apps.Registry.find

let t_local spec app =
  Report.total_user_s (Runner.run app { spec with Runner.n_cpus = 1; nthreads = 1 })

let ratio num den = if den > 0. then num /. den else 0.

(* --- threshold sweep ---------------------------------------------------- *)

type threshold_row = {
  ts_app : string;
  ts_threshold : int option;
  ts_t_numa : float;
  ts_t_system : float;
  ts_gamma : float;
  ts_moves : int;
  ts_pins : int;
}

let default_thresholds = [ Some 0; Some 1; Some 2; Some 4; Some 8; Some 16; None ]

let threshold_sweep ?apps ?jobs ?(thresholds = default_thresholds)
    ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "primes3" ]) in
  (* T_local once per app, to derive gamma per threshold. *)
  let t_locals = Parallel.map ?jobs (t_local spec) apps in
  Sweep.grid ?jobs (List.combine apps t_locals) thresholds
    (fun ((app : App_sig.t), t_local) threshold ->
      let policy =
        match threshold with
        | Some t -> System.Move_limit { threshold = t }
        | None -> System.Never_pin
      in
      let r = Runner.run app { spec with Runner.policy } in
      let t_numa = Report.total_user_s r in
      {
        ts_app = app.App_sig.name;
        ts_threshold = threshold;
        ts_t_numa = t_numa;
        ts_t_system = Report.total_system_s r;
        ts_gamma = t_numa /. t_local;
        ts_moves = r.Report.numa_moves;
        ts_pins = r.Report.pins;
      })
  |> List.concat_map snd

let render_threshold_sweep rows =
  "Ablation A1: move-threshold sweep (section 2.3.2 policy parameter)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun r -> r.ts_app);
            ( "threshold",
              Right,
              fun r -> match r.ts_threshold with Some t -> string_of_int t | None -> "inf" );
            ("Tnuma", Right, fun r -> cell_f1 r.ts_t_numa);
            ("Tsystem", Right, fun r -> cell_f1 r.ts_t_system);
            ("gamma", Right, fun r -> cell_f2 r.ts_gamma);
            ("moves", Right, fun r -> cell_int r.ts_moves);
            ("pins", Right, fun r -> cell_int r.ts_pins);
          ])

(* --- scheduler study ----------------------------------------------------- *)

type scheduler_row = {
  sc_app : string;
  sc_affinity_user : float;
  sc_single_queue_user : float;
  sc_slowdown : float;
}

let scheduler_study ?apps ?jobs ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "imatmult"; "fft"; "plytrace" ]) in
  Parallel.map ?jobs
    (fun (app : App_sig.t) ->
      let user scheduler = Report.total_user_s (Runner.run app { spec with Runner.scheduler }) in
      let a = user Numa_sim.Engine.Affinity in
      (* Original Mach: a single run queue, still one thread per CPU. *)
      let s = user Numa_sim.Engine.Single_queue in
      {
        sc_app = app.App_sig.name;
        sc_affinity_user = a;
        sc_single_queue_user = s;
        sc_slowdown = ratio s a;
      })
    apps

let render_scheduler_study rows =
  "Ablation A3: processor affinity vs original Mach single queue (section 4.7)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun r -> r.sc_app);
            ("affinity (s)", Right, fun r -> cell_f1 r.sc_affinity_user);
            ("single-queue (s)", Right, fun r -> cell_f1 r.sc_single_queue_user);
            ("slowdown", Right, fun r -> cell_f2 r.sc_slowdown);
          ])

(* --- G/L sweep ------------------------------------------------------------ *)

type gl_row = { gl_factor : float; gl_ratio : float; gl_gamma : float; gl_alpha : float }

let gl_sweep ?app ?jobs ?(factors = [ 0.75; 1.0; 1.5; 2.0; 3.0 ])
    ?(spec = Runner.default_spec) () =
  let app = Option.value app ~default:(app_named "fft") in
  Parallel.map ?jobs
    (fun factor ->
      let tweak (c : Config.t) =
        {
          c with
          Config.global_fetch_ns = c.Config.global_fetch_ns *. factor;
          global_store_ns = c.Config.global_store_ns *. factor;
        }
      in
      let m = Runner.measure app { spec with Runner.config_tweak = tweak } in
      {
        gl_factor = factor;
        gl_ratio =
          Config.global_to_local_ratio
            (tweak (Config.ace ~n_cpus:spec.Runner.n_cpus ()))
            ~store_fraction:0.45;
        gl_gamma = m.Runner.gamma;
        gl_alpha = m.Runner.alpha;
      })
    factors

let render_gl_sweep rows =
  "Ablation A4: sensitivity to the global/local latency ratio\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("global x", Right, fun r -> cell_f2 r.gl_factor);
            ("G/L", Right, fun r -> cell_f2 r.gl_ratio);
            ("gamma", Right, fun r -> cell_f2 r.gl_gamma);
            ("alpha", Right, fun r -> cell_f2 r.gl_alpha);
          ])

(* --- pragma study ---------------------------------------------------------- *)

type pragma_row = { pr_variant : string; pr_t_numa : float; pr_s_numa : float; pr_moves : int }

let pragma_study ?(spec = Runner.default_spec) () =
  List.map
    (fun name ->
      let r = Runner.run (app_named name) spec in
      {
        pr_variant = name;
        pr_t_numa = Report.total_user_s r;
        pr_s_numa = Report.total_system_s r;
        pr_moves = r.Report.numa_moves;
      })
    [ "primes3"; "primes3-pragma" ]

let render_pragma_study rows =
  "Ablation A5: noncacheable pragma on primes3's shared vectors (section 4.3)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("variant", Left, fun r -> r.pr_variant);
            ("Tnuma", Right, fun r -> cell_f1 r.pr_t_numa);
            ("Snuma", Right, fun r -> cell_f1 r.pr_s_numa);
            ("moves", Right, fun r -> cell_int r.pr_moves);
          ])

(* --- unix master ------------------------------------------------------------ *)

type unix_master_row = {
  um_variant : string;
  um_user : float;
  um_system : float;
  um_stack_global_refs : int;
}

let stack_global_refs (r : Report.t) =
  List.fold_left
    (fun acc (name, c) ->
      let is_stack =
        (* stack regions are named "<thread>.stack" by the system layer *)
        String.length name > 6 && String.sub name (String.length name - 6) 6 = ".stack"
      in
      if is_stack then acc + c.Report.global_reads + c.Report.global_writes else acc)
    0 r.Report.per_region

let unix_master_study ?(spec = Runner.default_spec) () =
  let app = app_named "syscall-mix" in
  List.map
    (fun (variant, unix_master) ->
      let r = Runner.run app { spec with Runner.unix_master } in
      {
        um_variant = variant;
        um_user = Report.total_user_s r;
        um_system = Report.total_system_s r;
        um_stack_global_refs = stack_global_refs r;
      })
    [ ("master-touches-stacks", true); ("fixed-syscalls", false) ]

let render_unix_master_study rows =
  "Ablation A6: system calls on the Unix master sharing user stacks (section 4.6)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("variant", Left, fun r -> r.um_variant);
            ("user (s)", Right, fun r -> cell_f1 r.um_user);
            ("system (s)", Right, fun r -> cell_f1 r.um_system);
            ("global stack refs", Right, fun r -> cell_int r.um_stack_global_refs);
          ])

(* --- processor-count sweep --------------------------------------------------------- *)

type cpu_row = {
  cs_app : string;
  cs_cpus : int;
  cs_t_numa : float;
  cs_gamma : float;
  cs_alpha_counted : float;
}

let cpu_sweep ?apps ?jobs ?(cpu_counts = [ 2; 4; 6; 8 ]) ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "imatmult"; "primes3" ]) in
  let t_locals = Parallel.map ?jobs (t_local spec) apps in
  Sweep.grid ?jobs (List.combine apps t_locals) cpu_counts
    (fun ((app : App_sig.t), t_local) cpus ->
      let r = Runner.run app { spec with Runner.n_cpus = cpus; nthreads = cpus } in
      let t_numa = Report.total_user_s r in
      {
        cs_app = app.App_sig.name;
        cs_cpus = cpus;
        cs_t_numa = t_numa;
        cs_gamma = ratio t_numa t_local;
        cs_alpha_counted = r.Report.alpha_counted;
      })
  |> List.concat_map snd

let render_cpu_sweep rows =
  "Ablation A13: measurement stability across processor counts\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun r -> r.cs_app);
            ("CPUs", Right, fun r -> cell_int r.cs_cpus);
            ("Tnuma", Right, fun r -> cell_f1 r.cs_t_numa);
            ("gamma", Right, fun r -> cell_f2 r.cs_gamma);
            ("alpha", Right, fun r -> cell_f2 r.cs_alpha_counted);
          ])

(* --- butterfly-class machines ------------------------------------------------------- *)

type butterfly_row = {
  bf_app : string;
  bf_gamma_ace : float;
  bf_gamma_butterfly : float;
  bf_alpha_ace : float;
  bf_alpha_butterfly : float;
}

let butterfly_study ?apps ?jobs ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "imatmult"; "primes3"; "fft" ]) in
  Parallel.map ?jobs
    (fun (app : App_sig.t) ->
      let measure tweak = Runner.measure app { spec with Runner.config_tweak = tweak } in
      let ace = measure Fun.id in
      let butterfly =
        measure (fun (c : Config.t) -> Config.butterfly_like ~n_cpus:c.Config.n_cpus ())
      in
      {
        bf_app = app.App_sig.name;
        bf_gamma_ace = ace.Runner.gamma;
        bf_gamma_butterfly = butterfly.Runner.gamma;
        bf_alpha_ace = ace.Runner.r_numa.Report.alpha_counted;
        bf_alpha_butterfly = butterfly.Runner.r_numa.Report.alpha_counted;
      })
    apps

let render_butterfly_study rows =
  "Ablation A14: a Butterfly-class machine (shared level at remote speed, section 4.4)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun r -> r.bf_app);
            ("gamma ACE", Right, fun r -> cell_f2 r.bf_gamma_ace);
            ("gamma Butterfly", Right, fun r -> cell_f2 r.bf_gamma_butterfly);
            ("alpha ACE", Right, fun r -> cell_f2 r.bf_alpha_ace);
            ("alpha Butterfly", Right, fun r -> cell_f2 r.bf_alpha_butterfly);
          ])

(* --- topology sweep ------------------------------------------------------------ *)

type topology_row = {
  tp_topology : string;
  tp_app : string;
  tp_t_numa : float;
  tp_gamma : float;
  tp_alpha : float;
  tp_remote_refs : int;
  tp_global_refs : int;
  tp_moves : int;
}

(* The same workload on machines that differ only in their distance
   matrix: the classic two-level ACE, the scalar "butterfly-like"
   retiming, the true all-local butterfly (shared level striped over CPU
   nodes), and a two-tier 4-socket matrix. The placement machinery is
   identical in every run — exactly the machine-independence claim of
   section 4.4. *)
let topology_sweep ?apps ?jobs ?(topologies = Config.builtin_topologies)
    ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "imatmult"; "primes3" ]) in
  Sweep.grid ?jobs apps topologies (fun (app : App_sig.t) topo_name ->
      let m = Runner.measure app (Runner.with_topology spec topo_name) in
      let refs = m.Runner.r_numa.Report.refs_all in
      {
        tp_topology = topo_name;
        tp_app = app.App_sig.name;
        tp_t_numa = m.Runner.times.Model.t_numa;
        tp_gamma = m.Runner.gamma;
        tp_alpha = m.Runner.r_numa.Report.alpha_counted;
        tp_remote_refs = refs.Report.remote_reads + refs.Report.remote_writes;
        tp_global_refs = refs.Report.global_reads + refs.Report.global_writes;
        tp_moves = m.Runner.r_numa.Report.numa_moves;
      })
  |> List.concat_map snd

let render_topology_sweep rows =
  "Ablation A15: one policy across N-node topologies (ACE / butterfly / multi-socket)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun r -> r.tp_app);
            ("topology", Left, fun r -> r.tp_topology);
            ("Tnuma", Right, fun r -> cell_f1 r.tp_t_numa);
            ("gamma", Right, fun r -> cell_f2 r.tp_gamma);
            ("alpha", Right, fun r -> cell_f2 r.tp_alpha);
            ("global refs", Right, fun r -> cell_int r.tp_global_refs);
            ("remote refs", Right, fun r -> cell_int r.tp_remote_refs);
            ("moves", Right, fun r -> cell_int r.tp_moves);
          ])

(* --- bus contention --------------------------------------------------------------- *)

type bus_row = {
  bu_bandwidth_mb_s : float;
  bu_t_numa : float;
  bu_t_global : float;
  bu_bus_delay_s : float;
  bu_gamma : float;
}

let bus_study ?app ?jobs ?(bandwidths = [ 0.; 80.; 40.; 20.; 10. ])
    ?(spec = Runner.default_spec) () =
  let app = Option.value app ~default:(app_named "gfetch") in
  Parallel.map ?jobs
    (fun mb_s ->
      let words_per_ns = mb_s *. 1e6 /. 4. /. 1e9 in
      let tweak (c : Config.t) = { c with Config.bus_words_per_ns = words_per_ns } in
      let spec = { spec with Runner.config_tweak = tweak } in
      let t_numa = Report.total_user_s (Runner.run app spec) in
      let r_global = Runner.run app { spec with Runner.policy = System.All_global } in
      {
        bu_bandwidth_mb_s = mb_s;
        bu_t_numa = t_numa;
        bu_t_global = Report.total_user_s r_global;
        bu_bus_delay_s = r_global.Report.bus_delay_ns /. 1e9;
        bu_gamma = ratio t_numa (t_local spec app);
      })
    bandwidths

let render_bus_study rows =
  "Ablation A11: IPC-bus contention (gfetch, 7 CPUs hammering global memory)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ( "bus MB/s",
              Right,
              fun r ->
                if r.bu_bandwidth_mb_s = 0. then "inf" else cell_f1 r.bu_bandwidth_mb_s );
            ("Tnuma", Right, fun r -> cell_f1 r.bu_t_numa);
            ("Tglobal", Right, fun r -> cell_f1 r.bu_t_global);
            ("bus delay (global run)", Right, fun r -> cell_f1 r.bu_bus_delay_s);
            ("gamma", Right, fun r -> cell_f2 r.bu_gamma);
          ])

(* --- remote references --------------------------------------------------------- *)

type remote_row = {
  rm_variant : string;
  rm_producer_user : float;
  rm_total_user : float;
  rm_remote_refs : int;
}

let remote_study ?(spec = Runner.default_spec) () =
  List.map
    (fun name ->
      let r = Runner.run (app_named name) spec in
      {
        rm_variant = name;
        rm_producer_user = r.Report.user_ns_per_cpu.(0) /. 1e9;
        rm_total_user = Report.total_user_s r;
        rm_remote_refs =
          r.Report.refs_all.Report.remote_reads + r.Report.refs_all.Report.remote_writes;
      })
    [ "lopsided"; "lopsided-homed" ]

let render_remote_study rows =
  "Ablation A9: remote references for lopsided sharing (section 4.4)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("variant", Left, fun r -> r.rm_variant);
            ("producer user (s)", Right, fun r -> cell_f2 r.rm_producer_user);
            ("total user (s)", Right, fun r -> cell_f2 r.rm_total_user);
            ("remote refs", Right, fun r -> cell_int r.rm_remote_refs);
          ])

(* --- thread migration ------------------------------------------------------------ *)

type migration_row = {
  mg_variant : string;
  mg_user : float;
  mg_moves : int;
  mg_pins : int;
  mg_alpha : float;
}

let migration_study ?(spec = Runner.default_spec) () =
  List.map
    (fun name ->
      let r = Runner.run (app_named name) spec in
      {
        mg_variant = name;
        mg_user = Report.total_user_s r;
        mg_moves = r.Report.numa_moves;
        mg_pins = r.Report.pins;
        mg_alpha = r.Report.alpha_counted;
      })
    [ "rebalance"; "rebalance-migrate" ]

let render_migration_study rows =
  "Ablation A12: load-balancing migration, with and without page migration (section 4.7)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("variant", Left, fun r -> r.mg_variant);
            ("user (s)", Right, fun r -> cell_f1 r.mg_user);
            ("moves", Right, fun r -> cell_int r.mg_moves);
            ("pins", Right, fun r -> cell_int r.mg_pins);
            ("alpha", Right, fun r -> cell_f2 r.mg_alpha);
          ])

(* --- reconsideration --------------------------------------------------------- *)

type reconsider_row = { rc_policy : string; rc_user : float; rc_final_global_pages : int }

let reconsider_study ?(spec = Runner.default_spec) ?(window_ms = 50.) () =
  let app = app_named "phased" in
  List.map
    (fun (name, policy) ->
      let r = Runner.run app { spec with Runner.policy } in
      {
        rc_policy = name;
        rc_user = Report.total_user_s r;
        rc_final_global_pages =
          Option.value (List.assoc_opt "global-writable" r.Report.placement) ~default:0;
      })
    [
      ("move-limit(4)", System.Move_limit { threshold = 4 });
      ( Printf.sprintf "reconsider(4, %.0f ms)" window_ms,
        System.Reconsider { threshold = 4; window_ns = window_ms *. 1e6 } );
    ]

let render_reconsider_study rows =
  "Ablation A8: reconsidering pinning decisions on the phase-shifting workload\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("policy", Left, fun r -> r.rc_policy);
            ("user (s)", Right, fun r -> cell_f1 r.rc_user);
            ("pages left in global", Right, fun r -> cell_int r.rc_final_global_pages);
          ])
