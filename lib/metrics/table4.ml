open Numa_util
module Report = Numa_system.Report

let table4_names =
  List.map (fun (a : Numa_apps.App_sig.t) -> a.Numa_apps.App_sig.name) Numa_apps.Registry.table4

let of_measurements ms =
  List.filter (fun m -> List.mem m.Runner.app_name table4_names) ms

let run ?(spec = Runner.default_spec) () = Table3.run ~apps:Numa_apps.Registry.table4 ~spec ()
let s_numa m = Report.total_system_s m.Runner.r_numa
let s_global m = Report.total_system_s m.Runner.r_global
let t_numa m = m.Runner.times.Model.t_numa

let delta_s m =
  let raw = s_numa m -. s_global m in
  if raw > 0. then Some raw else None

let overhead_pct m = match delta_s m with Some d -> 100. *. d /. t_numa m | None -> 0.

let render ms =
  "Table 4: total system time for runs on 7 processors (simulated seconds)\n"
  ^ Text_table.(
      of_rows ms
        ~columns:
          [
            ("Application", Left, fun m -> m.Runner.app_name);
            ("Snuma", Right, fun m -> cell_f1 (s_numa m));
            ("Sglobal", Right, fun m -> cell_f1 (s_global m));
            ("dS", Right, fun m -> match delta_s m with Some d -> cell_f1 d | None -> "na");
            ("Tnuma", Right, fun m -> cell_f1 (t_numa m));
            ( "dS/Tnuma",
              Right,
              fun m -> match delta_s m with Some _ -> cell_pct (overhead_pct m) | None -> "0%" );
          ])

let render_comparison ms =
  let with_paper =
    List.filter_map
      (fun m -> Option.map (fun p -> (m, p)) (Paper_values.find_table4 m.Runner.app_name))
      ms
  in
  "Measured vs paper (Table 4 NUMA-management overhead)\n"
  ^ Text_table.(
      of_rows with_paper
        ~columns:
          [
            ("Application", Left, fun (m, _) -> m.Runner.app_name);
            ("dS/Tnuma meas", Right, fun (m, _) -> cell_pct (overhead_pct m));
            ("dS/Tnuma paper", Right, fun (_, p) -> cell_pct p.Paper_values.overhead_pct);
          ])
