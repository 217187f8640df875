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
let user = Report.total_user_s
let system = Report.total_system_s

let global_refs (r : Report.t) =
  let c = r.Report.refs_all in
  c.Report.global_reads + c.Report.global_writes

let remote_refs (r : Report.t) =
  let c = r.Report.refs_all in
  c.Report.remote_reads + c.Report.remote_writes

let variants spec names =
  List.map (fun name -> (name, Runner.run (app_named name) spec)) names

type priced = { app : string; t_local : float; r : Report.t }

(* One run per (app, x), app-major, each priced against its app's T_local,
   measured once per app. *)
let priced_sweep ?jobs spec apps xs spec_for =
  let t_locals = Parallel.map ?jobs (t_local spec) apps in
  Sweep.grid ?jobs (List.combine apps t_locals) xs (fun ((app : App_sig.t), t_local) x ->
      { app = app.App_sig.name; t_local; r = Runner.run app (spec_for x) })
  |> List.concat_map snd

(* --- threshold sweep ---------------------------------------------------- *)

let default_thresholds = [ Some 0; Some 1; Some 2; Some 4; Some 8; Some 16; None ]

let threshold_sweep ?apps ?jobs ?(thresholds = default_thresholds)
    ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "primes3" ]) in
  priced_sweep ?jobs spec apps thresholds (fun threshold ->
      let policy =
        match threshold with
        | Some t -> System.Move_limit { threshold = t }
        | None -> System.Never_pin
      in
      { spec with Runner.policy })

let render_threshold_sweep rows =
  "Ablation A1: move-threshold sweep (section 2.3.2 policy parameter)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun p -> p.app);
            ( "threshold",
              Right,
              fun p ->
                let info = p.r.Report.policy_info in
                Option.value (List.assoc_opt "threshold" info) ~default:"inf" );
            ("Tnuma", Right, fun p -> cell_f1 (user p.r));
            ("Tsystem", Right, fun p -> cell_f1 (system p.r));
            ("gamma", Right, fun p -> cell_f2 (user p.r /. p.t_local));
            ("moves", Right, fun p -> cell_int p.r.Report.numa_moves);
            ("pins", Right, fun p -> cell_int p.r.Report.pins);
          ])

(* --- scheduler study ----------------------------------------------------- *)

let scheduler_study ?apps ?jobs ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "imatmult"; "fft"; "plytrace" ]) in
  Parallel.map ?jobs
    (fun (app : App_sig.t) ->
      let run scheduler = Runner.run app { spec with Runner.scheduler } in
      (* Original Mach: a single run queue, still one thread per CPU. *)
      (app.App_sig.name, run Numa_sim.Engine.Affinity, run Numa_sim.Engine.Single_queue))
    apps

let render_scheduler_study rows =
  "Ablation A3: processor affinity vs original Mach single queue (section 4.7)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun (app, _, _) -> app);
            ("affinity (s)", Right, fun (_, a, _) -> cell_f1 (user a));
            ("single-queue (s)", Right, fun (_, _, s) -> cell_f1 (user s));
            ("slowdown", Right, fun (_, a, s) -> cell_f2 (ratio (user s) (user a)));
          ])

(* --- G/L sweep ------------------------------------------------------------ *)

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
      (factor, Runner.measure app { spec with Runner.config_tweak = tweak }))
    factors

let render_gl_sweep rows =
  "Ablation A4: sensitivity to the global/local latency ratio\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("global x", Right, fun (factor, _) -> cell_f2 factor);
            ("G/L", Right, fun (_, m) -> cell_f2 m.Runner.gl);
            ("gamma", Right, fun (_, m) -> cell_f2 m.Runner.gamma);
            ("alpha", Right, fun (_, m) -> cell_f2 m.Runner.alpha);
          ])

(* --- pragma study ---------------------------------------------------------- *)

let pragma_study ?(spec = Runner.default_spec) () =
  variants spec [ "primes3"; "primes3-pragma" ]

let render_pragma_study rows =
  "Ablation A5: noncacheable pragma on primes3's shared vectors (section 4.3)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("variant", Left, fst);
            ("Tnuma", Right, fun (_, r) -> cell_f1 (user r));
            ("Snuma", Right, fun (_, r) -> cell_f1 (system r));
            ("moves", Right, fun (_, r) -> cell_int r.Report.numa_moves);
          ])

(* --- unix master ------------------------------------------------------------ *)

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
      (variant, Runner.run app { spec with Runner.unix_master }))
    [ ("master-touches-stacks", true); ("fixed-syscalls", false) ]

let render_unix_master_study rows =
  "Ablation A6: system calls on the Unix master sharing user stacks (section 4.6)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("variant", Left, fst);
            ("user (s)", Right, fun (_, r) -> cell_f1 (user r));
            ("system (s)", Right, fun (_, r) -> cell_f1 (system r));
            ("global stack refs", Right, fun (_, r) -> cell_int (stack_global_refs r));
          ])

(* --- processor-count sweep --------------------------------------------------------- *)

let cpu_sweep ?apps ?jobs ?(cpu_counts = [ 2; 4; 6; 8 ]) ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "imatmult"; "primes3" ]) in
  priced_sweep ?jobs spec apps cpu_counts (fun cpus ->
      { spec with Runner.n_cpus = cpus; nthreads = cpus })

let render_cpu_sweep rows =
  "Ablation A13: measurement stability across processor counts\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun p -> p.app);
            ("CPUs", Right, fun p -> cell_int p.r.Report.n_cpus);
            ("Tnuma", Right, fun p -> cell_f1 (user p.r));
            ("gamma", Right, fun p -> cell_f2 (ratio (user p.r) p.t_local));
            ("alpha", Right, fun p -> cell_f2 p.r.Report.alpha_counted);
          ])

(* --- butterfly-class machines ------------------------------------------------------- *)

let butterfly_study ?apps ?jobs ?(spec = Runner.default_spec) () =
  let apps = Option.value apps ~default:(named [ "imatmult"; "primes3"; "fft" ]) in
  Parallel.map ?jobs
    (fun (app : App_sig.t) ->
      let measure tweak = Runner.measure app { spec with Runner.config_tweak = tweak } in
      ( measure Fun.id,
        measure (fun (c : Config.t) -> Config.butterfly_like ~n_cpus:c.Config.n_cpus ()) ))
    apps

let render_butterfly_study rows =
  let alpha m = Text_table.cell_f2 m.Runner.r_numa.Report.alpha_counted in
  "Ablation A14: a Butterfly-class machine (shared level at remote speed, section 4.4)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun (ace, _) -> ace.Runner.app_name);
            ("gamma ACE", Right, fun (ace, _) -> cell_f2 ace.Runner.gamma);
            ("gamma Butterfly", Right, fun (_, bf) -> cell_f2 bf.Runner.gamma);
            ("alpha ACE", Right, fun (ace, _) -> alpha ace);
            ("alpha Butterfly", Right, fun (_, bf) -> alpha bf);
          ])

(* --- topology sweep ------------------------------------------------------------ *)

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
      (topo_name, Runner.measure app (Runner.with_topology spec topo_name)))
  |> List.concat_map snd

let render_topology_sweep rows =
  "Ablation A15: one policy across N-node topologies (ACE / butterfly / multi-socket)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun (_, m) -> m.Runner.app_name);
            ("topology", Left, fst);
            ("Tnuma", Right, fun (_, m) -> cell_f1 m.Runner.times.Model.t_numa);
            ("gamma", Right, fun (_, m) -> cell_f2 m.Runner.gamma);
            ("alpha", Right, fun (_, m) -> cell_f2 m.Runner.r_numa.Report.alpha_counted);
            ("global refs", Right, fun (_, m) -> cell_int (global_refs m.Runner.r_numa));
            ("remote refs", Right, fun (_, m) -> cell_int (remote_refs m.Runner.r_numa));
            ("moves", Right, fun (_, m) -> cell_int m.Runner.r_numa.Report.numa_moves);
          ])

(* --- bus contention --------------------------------------------------------------- *)

type bus_row = {
  bu_bandwidth_mb_s : float;
  bu_numa : Report.t;
  bu_global : Report.t;
  bu_t_local : float;
}

let bus_study ?app ?jobs ?(bandwidths = [ 0.; 80.; 40.; 20.; 10. ])
    ?(spec = Runner.default_spec) () =
  let app = Option.value app ~default:(app_named "gfetch") in
  Parallel.map ?jobs
    (fun mb_s ->
      let words_per_ns = mb_s *. 1e6 /. 4. /. 1e9 in
      let tweak (c : Config.t) = { c with Config.bus_words_per_ns = words_per_ns } in
      let spec = { spec with Runner.config_tweak = tweak } in
      {
        bu_bandwidth_mb_s = mb_s;
        bu_numa = Runner.run app spec;
        bu_global = Runner.run app { spec with Runner.policy = System.All_global };
        bu_t_local = t_local spec app;
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
              fun b ->
                if b.bu_bandwidth_mb_s = 0. then "inf" else cell_f1 b.bu_bandwidth_mb_s );
            ("Tnuma", Right, fun b -> cell_f1 (user b.bu_numa));
            ("Tglobal", Right, fun b -> cell_f1 (user b.bu_global));
            ( "bus delay (global run)",
              Right,
              fun b -> cell_f1 (b.bu_global.Report.bus_delay_ns /. 1e9) );
            ("gamma", Right, fun b -> cell_f2 (ratio (user b.bu_numa) b.bu_t_local));
          ])

(* --- remote references --------------------------------------------------------- *)

let remote_study ?(spec = Runner.default_spec) () =
  variants spec [ "lopsided"; "lopsided-homed" ]

let render_remote_study rows =
  "Ablation A9: remote references for lopsided sharing (section 4.4)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("variant", Left, fst);
            ( "producer user (s)",
              Right,
              fun (_, r) -> cell_f2 (r.Report.user_ns_per_cpu.(0) /. 1e9) );
            ("total user (s)", Right, fun (_, r) -> cell_f2 (user r));
            ("remote refs", Right, fun (_, r) -> cell_int (remote_refs r));
          ])

(* --- thread migration ------------------------------------------------------------ *)

let migration_study ?(spec = Runner.default_spec) () =
  variants spec [ "rebalance"; "rebalance-migrate" ]

let render_migration_study rows =
  "Ablation A12: load-balancing migration, with and without page migration (section 4.7)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("variant", Left, fst);
            ("user (s)", Right, fun (_, r) -> cell_f1 (user r));
            ("moves", Right, fun (_, r) -> cell_int r.Report.numa_moves);
            ("pins", Right, fun (_, r) -> cell_int r.Report.pins);
            ("alpha", Right, fun (_, r) -> cell_f2 r.Report.alpha_counted);
          ])

(* --- reconsideration --------------------------------------------------------- *)

let global_pages (r : Report.t) =
  Option.value (List.assoc_opt "global-writable" r.Report.placement) ~default:0

let reconsider_study ?(spec = Runner.default_spec) ?(window_ms = 50.) () =
  let app = app_named "phased" in
  List.map
    (fun (name, policy) -> (name, Runner.run app { spec with Runner.policy }))
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
            ("policy", Left, fst);
            ("user (s)", Right, fun (_, r) -> cell_f1 (user r));
            ("pages left in global", Right, fun (_, r) -> cell_int (global_pages r));
          ])
