open Numa_util
module Report = Numa_system.Report
module Pt = Numa_machine.Pt

type variant = { mode : Pt.mode; topology : string }

let variant_name v = Printf.sprintf "%s/%s" (Pt.mode_to_string v.mode) v.topology

let default_modes () = [ Pt.Off; Pt.Shared; Pt.Replicated None; Pt.Replicated (Some 2) ]
let default_topologies () = [ "ace"; "multi-socket" ]

let default_variants () =
  List.concat_map
    (fun topology -> List.map (fun mode -> { mode; topology }) (default_modes ()))
    (default_topologies ())

type cell = {
  app_name : string;
  time_s : float;
  slowdown : float;  (** vs the [Off] run of the same app and topology *)
  walks : int;
  walk_levels : int;
  walk_ns : float;
  walk_share : float;
  pte_updates : int;
  pte_shootdowns : int;
  replicas_built : int;
  global_pt_pages : int;
  tlb_miss_rate : float;
  invariant_violations : int;
  r : Report.t;
}

type row = {
  variant : variant;
  cells : cell list;
  mean_slowdown : float;
  mean_walk_share : float;
  walks : int;
  pte_updates : int;
  pte_shootdowns : int;
  replicas_built : int;
  global_pt_pages : int;
  invariant_checks : int;
  invariant_violations : int;
}

(* User + system time: the walk and shootdown charges are kernel work, so
   a user-time-only slowdown would hide exactly the cost being measured. *)
let run_time_s (r : Report.t) = Report.total_user_s r +. Report.total_system_s r

let cell_of_run app ~baseline (r : Report.t) =
  let time_s = run_time_s r in
  let base_s = run_time_s baseline in
  let walks, walk_levels, walk_ns, pte_updates, pte_shootdowns, built, global_pt =
    match r.Report.pt with
    | Some p ->
        ( p.Report.walks,
          p.Report.walk_levels,
          p.Report.walk_ns,
          p.Report.pte_updates,
          p.Report.pte_shootdowns,
          p.Report.replicas_built,
          p.Report.global_pt_pages )
    | None -> (0, 0, 0., 0, 0, 0, 0)
  in
  let total_ns = r.Report.total_user_ns +. r.Report.total_system_ns in
  {
    app_name = app.Numa_apps.App_sig.name;
    time_s;
    slowdown = (if base_s > 0. then time_s /. base_s else nan);
    walks;
    walk_levels;
    walk_ns;
    walk_share = (if total_ns > 0. then walk_ns /. total_ns else 0.);
    pte_updates;
    pte_shootdowns;
    replicas_built = built;
    global_pt_pages = global_pt;
    tlb_miss_rate =
      (let total = r.Report.tlb_hits + r.Report.tlb_misses in
       if total = 0 then 0. else float_of_int r.Report.tlb_misses /. float_of_int total);
    invariant_violations = snd (Sweep.audits r);
    r;
  }

let run ?jobs ?apps ?variants ?(spec = Runner.default_spec) () =
  let apps = match apps with Some l -> l | None -> Numa_apps.Registry.table4 in
  let variants = match variants with Some l -> l | None -> default_variants () in
  if apps = [] then invalid_arg "Pt_sweep.run: no apps";
  if variants = [] then invalid_arg "Pt_sweep.run: no variants";
  let topologies =
    List.sort_uniq String.compare (List.map (fun v -> v.topology) variants)
  in
  (* One free-translation run per (app, topology) prices the machine the
     walks are laid on top of; the mode x app x topology product then fans
     out. Every materialised run is paranoid, so the page-table relation
     (master = MMU image, replicas = master image) is audited from the
     daemon tick while tables churn. *)
  let on = Runner.with_topology spec in
  let baselines =
    Sweep.grid ?jobs topologies apps (fun topology app ->
        (app, Runner.run app { (on topology) with Runner.pt_mode = Pt.Off }))
  in
  Sweep.grid ?jobs variants apps (fun v app ->
      let baseline = List.assq app (List.assoc v.topology baselines) in
      let r =
        match v.mode with
        | Pt.Off -> baseline
        | Pt.Shared | Pt.Replicated _ ->
            Runner.run app { (on v.topology) with Runner.pt_mode = v.mode; paranoid = true }
      in
      cell_of_run app ~baseline r)
  |> List.map (fun (variant, cells) ->
         let sum f = Sweep.sum f cells in
         {
           variant;
           cells;
           mean_slowdown = Sweep.mean (List.map (fun c -> c.slowdown) cells);
           mean_walk_share = Sweep.mean (List.map (fun c -> c.walk_share) cells);
           walks = sum (fun c -> c.walks);
           pte_updates = sum (fun c -> c.pte_updates);
           pte_shootdowns = sum (fun c -> c.pte_shootdowns);
           replicas_built = sum (fun c -> c.replicas_built);
           global_pt_pages = sum (fun c -> c.global_pt_pages);
           invariant_checks = sum (fun c -> fst (Sweep.audits c.r));
           invariant_violations = sum (fun c -> c.invariant_violations);
         })

let total_violations rows = Sweep.sum (fun r -> r.invariant_violations) rows

let render rows =
  let apps =
    match rows with [] -> [] | r :: _ -> List.map (fun c -> c.app_name) r.cells
  in
  let slowdown_of i r = Text_table.cell_f2 (List.nth r.cells i).slowdown in
  Printf.sprintf
    "Page-table sweep: per-app slowdown against the free-translation run \
     of the same topology (mode/topology rows). Walk share is the fraction \
     of total time spent in multi-level walks — it separates walk-heavy \
     applications (TLB-hostile reference streams) from walk-light ones, \
     and replication earns its shootdown traffic exactly when that share \
     is large and remote. %d invariant violations across the matrix.\n%s"
    (total_violations rows)
    Text_table.(
      of_rows rows
        ~columns:
          ((("PT mode", Left, fun r -> variant_name r.variant)
           :: List.mapi (fun i a -> (a, Right, slowdown_of i)) apps)
          @ [
              ("mean slowdown", Right, fun r -> cell_f2 r.mean_slowdown);
              ("walk share", Right, fun r -> Printf.sprintf "%.1f%%" (100. *. r.mean_walk_share));
              ("walks", Right, fun r -> cell_int r.walks);
              ("shootdowns", Right, fun r -> cell_int r.pte_shootdowns);
              ("replicas", Right, fun r -> cell_int r.replicas_built);
              ("violations", Right, fun r -> cell_int r.invariant_violations);
            ]))

let to_json rows : Numa_obs.Json.t =
  let open Numa_obs.Json in
  Obj
    [
      ("total_violations", Int (total_violations rows));
      ( "variants",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("variant", String (variant_name r.variant));
                   ("mode", String (Pt.mode_to_string r.variant.mode));
                   ("topology", String r.variant.topology);
                   ("mean_slowdown", Float r.mean_slowdown);
                   ("mean_walk_share", Float r.mean_walk_share);
                   ("walks", Int r.walks);
                   ("pte_updates", Int r.pte_updates);
                   ("pte_shootdowns", Int r.pte_shootdowns);
                   ("replicas_built", Int r.replicas_built);
                   ("global_pt_pages", Int r.global_pt_pages);
                   ("invariant_checks", Int r.invariant_checks);
                   ("invariant_violations", Int r.invariant_violations);
                   ( "apps",
                     List
                       (List.map
                          (fun c ->
                            Obj
                              [
                                ("app", String c.app_name);
                                ("time_s", Float c.time_s);
                                ("slowdown", Float c.slowdown);
                                ("walks", Int c.walks);
                                ("walk_levels", Int c.walk_levels);
                                ("walk_ns", Float c.walk_ns);
                                ("walk_share", Float c.walk_share);
                                ("tlb_miss_rate", Float c.tlb_miss_rate);
                                ("pte_updates", Int c.pte_updates);
                                ("pte_shootdowns", Int c.pte_shootdowns);
                                ("replicas_built", Int c.replicas_built);
                                ("report", Report.to_json c.r);
                              ])
                          r.cells) );
                 ])
             rows) );
    ]
