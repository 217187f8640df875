open Numa_util

type row = { m : Runner.measurement; alpha_counted : float }

let run ?apps ?jobs ?(spec = Runner.default_spec) () =
  let apps = match apps with Some l -> l | None -> Numa_apps.Registry.table3 in
  List.map
    (fun m -> { m; alpha_counted = m.Runner.r_numa.Numa_system.Report.alpha_counted })
    (Runner.measure_many ?jobs apps spec)

(* ParMult's alpha is meaningless (beta = 0 means the denominator of
   equation 4 is measurement noise); the paper prints "na". We apply the
   same rule when the global/local spread is under half a percent. *)
let alpha_is_meaningful (m : Runner.measurement) =
  let t = m.Runner.times in
  t.Model.t_global -. t.Model.t_local > 0.005 *. t.Model.t_local

let cell_alpha r =
  if alpha_is_meaningful r.m then Text_table.cell_f2 r.m.Runner.alpha else "na"

let render rows =
  "Table 3: measured user times (simulated seconds) and computed model parameters\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun r -> r.m.Runner.app_name);
            ("Tglobal", Right, fun r -> cell_f1 r.m.Runner.times.Model.t_global);
            ("Tnuma", Right, fun r -> cell_f1 r.m.Runner.times.Model.t_numa);
            ("Tlocal", Right, fun r -> cell_f1 r.m.Runner.times.Model.t_local);
            ("alpha", Right, cell_alpha);
            ("beta", Right, fun r -> cell_f2 r.m.Runner.beta);
            ("gamma", Right, fun r -> cell_f2 r.m.Runner.gamma);
            ("alpha(counted)", Right, fun r -> cell_f2 r.alpha_counted);
          ])

let render_comparison rows =
  let with_paper =
    List.filter_map
      (fun r -> Option.map (fun p -> (r, p)) (Paper_values.find_table3 r.m.Runner.app_name))
      rows
  in
  "Measured vs paper (Table 3 model parameters)\n"
  ^ Text_table.(
      of_rows with_paper
        ~columns:
          [
            ("Application", Left, fun (r, _) -> r.m.Runner.app_name);
            ("alpha meas", Right, fun (r, _) -> cell_alpha r);
            ( "alpha paper",
              Right,
              fun (_, p) -> match p.Paper_values.alpha with None -> "na" | Some a -> cell_f2 a );
            ("beta meas", Right, fun (r, _) -> cell_f2 r.m.Runner.beta);
            ("beta paper", Right, fun (_, p) -> cell_f2 p.Paper_values.beta);
            ("gamma meas", Right, fun (r, _) -> cell_f2 r.m.Runner.gamma);
            ("gamma paper", Right, fun (_, p) -> cell_f2 p.Paper_values.gamma);
          ])
