open Numa_util

let run ?apps ?jobs ?(spec = Runner.default_spec) () =
  let apps = match apps with Some l -> l | None -> Numa_apps.Registry.table3 in
  Runner.measure_many ?jobs apps spec

(* ParMult's alpha is meaningless (beta = 0 means the denominator of
   equation 4 is measurement noise); the paper prints "na". We apply the
   same rule when the global/local spread is under half a percent. *)
let alpha_is_meaningful (m : Runner.measurement) =
  let t = m.Runner.times in
  t.Model.t_global -. t.Model.t_local > 0.005 *. t.Model.t_local

let cell_alpha m = if alpha_is_meaningful m then Text_table.cell_f2 m.Runner.alpha else "na"

let render ms =
  "Table 3: measured user times (simulated seconds) and computed model parameters\n"
  ^ Text_table.(
      of_rows ms
        ~columns:
          [
            ("Application", Left, fun m -> m.Runner.app_name);
            ("Tglobal", Right, fun m -> cell_f1 m.Runner.times.Model.t_global);
            ("Tnuma", Right, fun m -> cell_f1 m.Runner.times.Model.t_numa);
            ("Tlocal", Right, fun m -> cell_f1 m.Runner.times.Model.t_local);
            ("alpha", Right, cell_alpha);
            ("beta", Right, fun m -> cell_f2 m.Runner.beta);
            ("gamma", Right, fun m -> cell_f2 m.Runner.gamma);
            ( "alpha(counted)",
              Right,
              fun m -> cell_f2 m.Runner.r_numa.Numa_system.Report.alpha_counted );
          ])

let render_comparison ms =
  let with_paper =
    List.filter_map
      (fun m -> Option.map (fun p -> (m, p)) (Paper_values.find_table3 m.Runner.app_name))
      ms
  in
  "Measured vs paper (Table 3 model parameters)\n"
  ^ Text_table.(
      of_rows with_paper
        ~columns:
          [
            ("Application", Left, fun (m, _) -> m.Runner.app_name);
            ("alpha meas", Right, fun (m, _) -> cell_alpha m);
            ( "alpha paper",
              Right,
              fun (_, p) -> match p.Paper_values.alpha with None -> "na" | Some a -> cell_f2 a );
            ("beta meas", Right, fun (m, _) -> cell_f2 m.Runner.beta);
            ("beta paper", Right, fun (_, p) -> cell_f2 p.Paper_values.beta);
            ("gamma meas", Right, fun (m, _) -> cell_f2 m.Runner.gamma);
            ("gamma paper", Right, fun (_, p) -> cell_f2 p.Paper_values.gamma);
          ])
