open Numa_util
module Report = Numa_system.Report
module Sys_ = Numa_system.System
module Plan = Numa_faults.Plan

(* The slate: the paper's policy, both baselines it is judged against, and
   the topology-aware variant — enough to show the tail-latency ordering
   without pricing every shipped policy. *)
let default_policies () =
  [
    Sys_.Move_limit { threshold = 4 };
    Sys_.All_global;
    Sys_.Never_pin;
    Sys_.Bandwidth_aware { threshold = 4 };
  ]

let default_topologies () = [ "ace"; "multi-socket"; "butterfly" ]

(* Node 1 drops out at 5 ms of simulated time — mid-warmup, so the drain
   and re-placement storm lands before arrivals and the serving tail shows
   steady-state life on the shrunken machine, not the drain transient. *)
let offline_plan () =
  match Plan.of_string "node-offline:1@5" with
  | Ok plan -> plan
  | Error msg -> invalid_arg ("Serve_sweep.offline_plan: " ^ msg)

type cell = { policy : Sys_.policy_spec; faulted : bool; r : Report.t }
type row = { topology : string; cells : cell list; offline : cell }

let serving c =
  match c.r.Report.serving with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf
           "Serve_sweep: run under %s produced no serving section (not a serve app?)"
           (Sys_.policy_spec_name c.policy))

let p99_spread row =
  let p99s = List.map (fun c -> float_of_int (serving c).Report.p99_us) row.cells in
  let best = List.fold_left Float.min infinity p99s in
  let worst = List.fold_left Float.max 0. p99s in
  if best > 0. then worst /. best else nan

let violations c = snd (Sweep.audits c.r)

let run ?jobs ?app ?policies ?topologies ?(spec = Runner.default_spec) () =
  let app = match app with Some a -> a | None -> Numa_apps.Serve.app in
  let policies = match policies with Some l -> l | None -> default_policies () in
  let topologies =
    match topologies with Some l -> l | None -> default_topologies ()
  in
  if policies = [] then invalid_arg "Serve_sweep.run: no policies";
  if topologies = [] then invalid_arg "Serve_sweep.run: no topologies";
  (* The whole grid fans out at once: per topology, every policy fault-free
     plus the default policy with a node offlined. Every run is paranoid —
     a tail measured on an incoherent protocol would be worthless — and
     open-loop arrivals make the cells comparable: the offered load is
     identical everywhere, only the queues differ. *)
  let offline = offline_plan () in
  let cols =
    List.map (fun p -> (p, false)) policies @ [ (List.hd policies, true) ]
  in
  Sweep.grid ?jobs topologies cols (fun topology (policy, faulted) ->
      let r =
        Runner.run app
          {
            (Runner.with_topology spec topology) with
            Runner.policy;
            faults = (if faulted then offline else Plan.empty);
            paranoid = true;
          }
      in
      let c = { policy; faulted; r } in
      ignore (serving c);
      c)
  |> List.map (fun (topology, mine) ->
         let cells = List.filter (fun c -> not c.faulted) mine in
         { topology; cells; offline = List.find (fun c -> c.faulted) mine })

let all_cells rows =
  List.concat_map (fun row -> row.cells @ [ row.offline ]) rows

let total_violations rows = Sweep.sum violations (all_cells rows)

let cell_label c =
  Sys_.policy_spec_name c.policy ^ if c.faulted then " +node-offline" else ""

let render ~scale rows =
  let spreads =
    String.concat ", "
      (List.map
         (fun row -> Printf.sprintf "%s %.1fx" row.topology (p99_spread row))
         rows)
  in
  let latency f (_, c) = Text_table.cell_int (f (serving c)) in
  Printf.sprintf
    "Serve sweep at scale %g: open-loop request latency (microseconds) per \
     placement policy and machine; identical offered load in every cell, so \
     the spread is pure policy. p99 spread (worst/best fault-free policy): \
     %s. %d invariant violations across the grid.\n%s"
    scale spreads (total_violations rows)
    Text_table.(
      of_rows
        (List.concat_map
           (fun row -> List.map (fun c -> (row.topology, c)) (row.cells @ [ row.offline ]))
           rows)
        ~columns:
          [
            ("Topology", Left, fst);
            ("Policy", Left, fun (_, c) -> cell_label c);
            ( "mean us",
              Right,
              fun (_, c) -> Printf.sprintf "%.1f" (serving c).Report.mean_us );
            ("p50", Right, latency (fun s -> s.Report.p50_us));
            ("p95", Right, latency (fun s -> s.Report.p95_us));
            ("p99", Right, latency (fun s -> s.Report.p99_us));
            ("p99.9", Right, latency (fun s -> s.Report.p999_us));
            ("max", Right, latency (fun s -> s.Report.max_us));
            ("queue p99", Right, latency (fun s -> s.Report.queue_p99_us));
            ( "req/s",
              Right,
              fun (_, c) -> Printf.sprintf "%.0f" (serving c).Report.throughput_rps );
            ("violations", Right, fun (_, c) -> cell_int (violations c));
          ])

let serving_to_json (s : Report.serving) : Numa_obs.Json.t =
  let open Numa_obs.Json in
  Obj
    [
      ("requests", Int s.Report.requests);
      ("throughput_rps", Float s.Report.throughput_rps);
      ("mean_us", Float s.Report.mean_us);
      ("p50_us", Int s.Report.p50_us);
      ("p95_us", Int s.Report.p95_us);
      ("p99_us", Int s.Report.p99_us);
      ("p999_us", Int s.Report.p999_us);
      ("max_us", Int s.Report.max_us);
      ("queue_mean_us", Float s.Report.queue_mean_us);
      ("queue_p99_us", Int s.Report.queue_p99_us);
    ]

let to_json rows : Numa_obs.Json.t =
  let open Numa_obs.Json in
  let cell_json c =
    Obj
      [
        ("policy", String (Sys_.policy_spec_name c.policy));
        ("faulted", Bool c.faulted);
        ("user_s", Float (Report.total_user_s c.r));
        ("latency", serving_to_json (serving c));
        ("invariant_checks", Int (fst (Sweep.audits c.r)));
        ("invariant_violations", Int (violations c));
        ("report", Report.to_json c.r);
      ]
  in
  Obj
    [
      ("total_violations", Int (total_violations rows));
      ( "topologies",
        List
          (List.map
             (fun row ->
               Obj
                 [
                   ("topology", String row.topology);
                   ("p99_spread", Float (p99_spread row));
                   ("policies", List (List.map cell_json row.cells));
                   ("node_offline", cell_json row.offline);
                 ])
             rows) );
    ]
