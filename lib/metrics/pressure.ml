open Numa_util
module Report = Numa_system.Report
module Plan = Numa_faults.Plan

type variant = {
  ratio : int;
  victim : Numa_vm.Pageout.victim;
  squeeze : bool;
}

let variant_name v =
  Printf.sprintf "%dx/%s%s" v.ratio
    (Numa_vm.Pageout.victim_name v.victim)
    (if v.squeeze then "+squeeze" else "")

(* The default matrix: every ratio under both victim policies, plus the
   chaos interaction — a frame squeeze on top of an already-pressured
   machine — at one representative ratio. The squeeze plan touches only
   node 0, so it fits any machine the sweep runs on. *)
let default_variants () =
  let pure =
    List.concat_map
      (fun ratio ->
        List.map
          (fun victim -> { ratio; victim; squeeze = false })
          [ Numa_vm.Pageout.Clock; Numa_vm.Pageout.Lru_approx ])
      [ 1; 2; 4; 8 ]
  in
  pure
  @ List.map
      (fun victim -> { ratio = 4; victim; squeeze = true })
      [ Numa_vm.Pageout.Clock; Numa_vm.Pageout.Lru_approx ]

let squeeze_plan =
  match Plan.of_string "frame-squeeze:0:0.5@5" with
  | Ok p -> p
  | Error msg -> invalid_arg ("Pressure.squeeze_plan: " ^ msg)

type cell = { app_name : string; baseline : Report.t; r : Report.t }
type row = { variant : variant; cells : cell list }

(* Pages the run ever gave content: everything the final placement sweep
   does not report as untouched. The ample baseline run never pages, so
   this is the program's working set in logical pages. *)
let footprint_of_report (r : Report.t) =
  let untouched =
    match List.assoc_opt "untouched" r.Report.placement with
    | Some n -> n
    | None -> 0
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Report.placement in
  total - untouched

(* The pool a variant gives an app of this working set. *)
let ram_pages v ~footprint = max 8 ((footprint + v.ratio - 1) / v.ratio)

(* Slowdown over user + system time: the point of pressure is the kernel
   work it induces (page-ins, writebacks, evictions), all of which is
   charged as system time — a user-time-only gamma would hide the disk. *)
let run_time_s (r : Report.t) = Report.total_user_s r +. Report.total_system_s r

let slowdown c =
  let time_s = run_time_s c.r in
  let base_s = run_time_s c.baseline in
  if base_s > 0. then time_s /. base_s else nan

let paging f c = match c.r.Report.paging with Some p -> f p | None -> 0
let page_ins = paging (fun p -> p.Report.page_ins)
let evictions = paging (fun p -> p.Report.evictions)
let writebacks_started = paging (fun p -> p.Report.writebacks_started)
let sync_writebacks = paging (fun p -> p.Report.sync_writebacks)

let oom_faults c =
  match c.r.Report.robustness with Some rb -> rb.Report.oom_faults | None -> 0

let violations c = snd (Sweep.audits c.r)

let total f row = Sweep.sum f row.cells

let run ?jobs ?apps ?variants ?(spec = Runner.default_spec) () =
  let apps = match apps with Some l -> l | None -> Numa_apps.Registry.table4 in
  let variants = match variants with Some l -> l | None -> default_variants () in
  if apps = [] then invalid_arg "Pressure.run: no apps";
  if variants = [] then invalid_arg "Pressure.run: no variants";
  List.iter
    (fun v -> if v.ratio < 1 then invalid_arg "Pressure.run: ratio must be >= 1")
    variants;
  (* One ample run per app prices the pressure-free machine and measures
     the working set; then the variant x app product fans out, each run
     on a machine whose logical-page pool is the working set divided by
     the variant's ratio. Every pressured run is paranoid: the per-frame
     paging relation is checked from the daemon tick while the pager is
     busiest. *)
  let baselines =
    Parallel.map ?jobs
      (fun app -> Runner.run app { spec with Runner.faults = Plan.empty })
      apps
  in
  Sweep.grid ?jobs variants (List.combine apps baselines) (fun v (app, baseline) ->
      let ram = ram_pages v ~footprint:(footprint_of_report baseline) in
      let tweak c =
        let c = spec.Runner.config_tweak c in
        { c with Numa_machine.Config.global_pages = ram }
      in
      let r =
        Runner.run app
          {
            spec with
            Runner.config_tweak = tweak;
            faults = (if v.squeeze then squeeze_plan else Plan.empty);
            paranoid = true;
            victim = v.victim;
          }
      in
      { app_name = app.Numa_apps.App_sig.name; baseline; r })
  |> List.map (fun (variant, cells) -> { variant; cells })

let mean_slowdown row = Sweep.mean (List.map slowdown row.cells)
let total_violations rows = Sweep.sum (total violations) rows
let total_oom rows = Sweep.sum (total oom_faults) rows

let render ~topology rows =
  let apps =
    match rows with [] -> [] | r :: _ -> List.map (fun c -> c.app_name) r.cells
  in
  let slowdown_of i r = Text_table.cell_f2 (slowdown (List.nth r.cells i)) in
  let count f r = Text_table.cell_int (total f r) in
  Printf.sprintf
    "Pressure sweep on %s: per-app slowdown against the ample-memory run, \
     at working-set/RAM ratios under both victim policies (ratio/victim \
     rows; +squeeze adds a frame squeeze on top of the pressure). %d \
     invariant violations across the matrix.\n%s"
    topology (total_violations rows)
    Text_table.(
      of_rows rows
        ~columns:
          ((("Pressure", Left, fun r -> variant_name r.variant)
           :: List.mapi (fun i a -> (a, Right, slowdown_of i)) apps)
          @ [
              ("mean slowdown", Right, fun r -> cell_f2 (mean_slowdown r));
              ("page-ins", Right, count page_ins);
              ("evictions", Right, count evictions);
              ( "writebacks",
                Right,
                fun r -> cell_int (total writebacks_started r + total sync_writebacks r) );
              ("oom", Right, count oom_faults);
              ("violations", Right, count violations);
            ]))

let to_json ~topology rows : Numa_obs.Json.t =
  let open Numa_obs.Json in
  Obj
    [
      ("topology", String topology);
      ("total_violations", Int (total_violations rows));
      ("total_oom_faults", Int (total_oom rows));
      ( "variants",
        List
          (List.map
             (fun r ->
               let count f = Int (total f r) in
               Obj
                 [
                   ("variant", String (variant_name r.variant));
                   ("ratio", Int r.variant.ratio);
                   ("victim", String (Numa_vm.Pageout.victim_name r.variant.victim));
                   ("squeeze", Bool r.variant.squeeze);
                   ("mean_slowdown", Float (mean_slowdown r));
                   ("page_ins", count page_ins);
                   ("evictions", count evictions);
                   ("writebacks_started", count writebacks_started);
                   ("sync_writebacks", count sync_writebacks);
                   ("oom_faults", count oom_faults);
                   ("invariant_checks", count (fun c -> fst (Sweep.audits c.r)));
                   ("invariant_violations", count violations);
                   ( "apps",
                     List
                       (List.map
                          (fun c ->
                            let footprint = footprint_of_report c.baseline in
                            Obj
                              [
                                ("app", String c.app_name);
                                ("ram_pages", Int (ram_pages r.variant ~footprint));
                                ("footprint_pages", Int footprint);
                                ("time_s", Float (run_time_s c.r));
                                ("slowdown", Float (slowdown c));
                                ("page_ins", Int (page_ins c));
                                ("evictions", Int (evictions c));
                                ("report", Report.to_json c.r);
                              ])
                          r.cells) );
                 ])
             rows) );
    ]
