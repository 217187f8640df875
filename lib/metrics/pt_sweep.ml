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

type cell = { app_name : string; baseline : Report.t; r : Report.t }
type row = { variant : variant; cells : cell list }

(* User + system time: the walk and shootdown charges are kernel work, so
   a user-time-only slowdown would hide exactly the cost being measured. *)
let run_time_s (r : Report.t) = Report.total_user_s r +. Report.total_system_s r

let slowdown c =
  let time_s = run_time_s c.r in
  let base_s = run_time_s c.baseline in
  if base_s > 0. then time_s /. base_s else nan

let pt f zero c = match c.r.Report.pt with Some p -> f p | None -> zero
let walks = pt (fun p -> p.Report.walks) 0
let walk_levels = pt (fun p -> p.Report.walk_levels) 0
let walk_ns = pt (fun p -> p.Report.walk_ns) 0.
let pte_updates = pt (fun p -> p.Report.pte_updates) 0
let pte_shootdowns = pt (fun p -> p.Report.pte_shootdowns) 0
let replicas_built = pt (fun p -> p.Report.replicas_built) 0
let global_pt_pages = pt (fun p -> p.Report.global_pt_pages) 0

(* Fraction of total time spent walking tables. *)
let walk_share c =
  let total_ns = c.r.Report.total_user_ns +. c.r.Report.total_system_ns in
  if total_ns > 0. then walk_ns c /. total_ns else 0.

(* What makes an app walk-heavy in the first place. *)
let tlb_miss_rate c =
  let total = c.r.Report.tlb_hits + c.r.Report.tlb_misses in
  if total = 0 then 0. else float_of_int c.r.Report.tlb_misses /. float_of_int total

let violations c = snd (Sweep.audits c.r)

let total f row = Sweep.sum f row.cells
let mean f row = Sweep.mean (List.map f row.cells)

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
      { app_name = app.Numa_apps.App_sig.name; baseline; r })
  |> List.map (fun (variant, cells) -> { variant; cells })

let total_violations rows = Sweep.sum (total violations) rows

let render rows =
  let apps =
    match rows with [] -> [] | r :: _ -> List.map (fun c -> c.app_name) r.cells
  in
  let slowdown_of i r = Text_table.cell_f2 (slowdown (List.nth r.cells i)) in
  let count f r = Text_table.cell_int (total f r) in
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
              ("mean slowdown", Right, fun r -> cell_f2 (mean slowdown r));
              ( "walk share",
                Right,
                fun r -> Printf.sprintf "%.1f%%" (100. *. mean walk_share r) );
              ("walks", Right, count walks);
              ("shootdowns", Right, count pte_shootdowns);
              ("replicas", Right, count replicas_built);
              ("violations", Right, count violations);
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
               let count f = Int (total f r) in
               Obj
                 [
                   ("variant", String (variant_name r.variant));
                   ("mode", String (Pt.mode_to_string r.variant.mode));
                   ("topology", String r.variant.topology);
                   ("mean_slowdown", Float (mean slowdown r));
                   ("mean_walk_share", Float (mean walk_share r));
                   ("walks", count walks);
                   ("pte_updates", count pte_updates);
                   ("pte_shootdowns", count pte_shootdowns);
                   ("replicas_built", count replicas_built);
                   ("global_pt_pages", count global_pt_pages);
                   ("invariant_checks", count (fun c -> fst (Sweep.audits c.r)));
                   ("invariant_violations", count violations);
                   ( "apps",
                     List
                       (List.map
                          (fun c ->
                            Obj
                              [
                                ("app", String c.app_name);
                                ("time_s", Float (run_time_s c.r));
                                ("slowdown", Float (slowdown c));
                                ("walks", Int (walks c));
                                ("walk_levels", Int (walk_levels c));
                                ("walk_ns", Float (walk_ns c));
                                ("walk_share", Float (walk_share c));
                                ("tlb_miss_rate", Float (tlb_miss_rate c));
                                ("pte_updates", Int (pte_updates c));
                                ("pte_shootdowns", Int (pte_shootdowns c));
                                ("replicas_built", Int (replicas_built c));
                                ("report", Report.to_json c.r);
                              ])
                          r.cells) );
                 ])
             rows) );
    ]
