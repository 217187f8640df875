open Numa_util

type row = {
  app_name : string;
  s_numa : float;
  s_global : float;
  delta_s : float option;
  t_numa : float;
  overhead_pct : float;
}

let table4_names =
  List.map (fun (a : Numa_apps.App_sig.t) -> a.Numa_apps.App_sig.name) Numa_apps.Registry.table4

let of_measurements rows =
  List.filter_map
    (fun (r : Table3.row) ->
      let m = r.Table3.m in
      if not (List.mem m.Runner.app_name table4_names) then None
      else begin
        let s_numa = Numa_system.Report.total_system_s m.Runner.r_numa in
        let s_global = Numa_system.Report.total_system_s m.Runner.r_global in
        let raw = s_numa -. s_global in
        let delta_s = if raw > 0. then Some raw else None in
        let t_numa = m.Runner.times.Model.t_numa in
        Some
          {
            app_name = m.Runner.app_name;
            s_numa;
            s_global;
            delta_s;
            t_numa;
            overhead_pct =
              (match delta_s with Some d -> 100. *. d /. t_numa | None -> 0.);
          }
      end)
    rows

let run ?(spec = Runner.default_spec) () =
  of_measurements (Table3.run ~apps:Numa_apps.Registry.table4 ~spec ())

let render rows =
  "Table 4: total system time for runs on 7 processors (simulated seconds)\n"
  ^ Text_table.(
      of_rows rows
        ~columns:
          [
            ("Application", Left, fun r -> r.app_name);
            ("Snuma", Right, fun r -> cell_f1 r.s_numa);
            ("Sglobal", Right, fun r -> cell_f1 r.s_global);
            ("dS", Right, fun r -> match r.delta_s with Some d -> cell_f1 d | None -> "na");
            ("Tnuma", Right, fun r -> cell_f1 r.t_numa);
            ( "dS/Tnuma",
              Right,
              fun r -> match r.delta_s with Some _ -> cell_pct r.overhead_pct | None -> "0%" );
          ])

let render_comparison rows =
  let with_paper =
    List.filter_map
      (fun r -> Option.map (fun p -> (r, p)) (Paper_values.find_table4 r.app_name))
      rows
  in
  "Measured vs paper (Table 4 NUMA-management overhead)\n"
  ^ Text_table.(
      of_rows with_paper
        ~columns:
          [
            ("Application", Left, fun (r, _) -> r.app_name);
            ("dS/Tnuma meas", Right, fun (r, _) -> cell_pct r.overhead_pct);
            ("dS/Tnuma paper", Right, fun (_, p) -> cell_pct p.Paper_values.overhead_pct);
          ])
