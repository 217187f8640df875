open Numa_util
module Sys_ = Numa_system.System
module Report = Numa_system.Report

type row = { policy : Sys_.policy_spec; cells : Runner.measurement list }

let each f row = List.map f row.cells
let mean_gamma row = Sweep.mean (each (fun m -> m.Runner.gamma) row)

(* Mean over the cells where the paper would print a number at all;
   ParMult-style apps with no writable sharing make alpha "na" (nan), and
   one nan would otherwise poison the whole policy's column. *)
let mean_alpha row =
  Sweep.mean (List.filter (fun x -> not (Float.is_nan x)) (each (fun m -> m.Runner.alpha) row))

let mean_beta row = Sweep.mean (each (fun m -> m.Runner.beta) row)
let total f row = Sweep.sum (fun m -> f m.Runner.r_numa) row.cells
let total_moves = total (fun r -> r.Report.numa_moves)
let total_pins = total (fun r -> r.Report.pins)

let run ?jobs ?policies ?apps ?(spec = Runner.default_spec) () =
  let policies = match policies with Some l -> l | None -> Sys_.builtin_policy_specs in
  let apps = match apps with Some l -> l | None -> Numa_apps.Registry.table4 in
  if policies = [] then invalid_arg "Tournament.run: no policies";
  if apps = [] then invalid_arg "Tournament.run: no apps";
  (* Fan the full policy x app product through the domain pool at once:
     the matrix is embarrassingly parallel and the long pole is whichever
     single measurement is slowest, not whichever policy is. *)
  Sweep.grid ?jobs policies apps (fun p app -> Runner.measure app { spec with Runner.policy = p })
  |> List.map (fun (policy, cells) -> { policy; cells })
  (* Best policy first: gamma is the user-time expansion over all-local
     (equation 1), so smaller is better. The sort is stable, so ties keep
     registration order. *)
  |> List.stable_sort (fun a b -> Float.compare (mean_gamma a) (mean_gamma b))

let render ~topology rows =
  let apps =
    match rows with [] -> [] | r :: _ -> each (fun m -> m.Runner.app_name) r
  in
  let gamma_of i r = Text_table.cell_f2 (List.nth r.cells i).Runner.gamma in
  Printf.sprintf
    "Policy tournament on %s: per-app and mean gamma (T_numa/T_local; 1.00 is \
     all-local speed, smaller is better), best policy first\n%s"
    topology
    Text_table.(
      of_rows rows
        ~columns:
          ((("Policy", Left, fun r -> Sys_.policy_spec_name r.policy)
           :: List.mapi (fun i a -> (a, Right, gamma_of i)) apps)
          @ [
              ("mean gamma", Right, fun r -> cell_f2 (mean_gamma r));
              ( "mean alpha",
                Right,
                fun r ->
                  let a = mean_alpha r in
                  if Float.is_nan a then "na" else cell_f2 a );
              ("mean beta", Right, fun r -> cell_f2 (mean_beta r));
              ("moves", Right, fun r -> cell_int (total_moves r));
              ("pins", Right, fun r -> cell_int (total_pins r));
            ]))

let to_json ~topology rows : Numa_obs.Json.t =
  let open Numa_obs.Json in
  Obj
    [
      ("topology", String topology);
      ( "policies",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("policy", String (Sys_.policy_spec_name r.policy));
                   ("mean_gamma", Float (mean_gamma r));
                   ("mean_alpha", Float (mean_alpha r));
                   ("mean_beta", Float (mean_beta r));
                   ("total_moves", Int (total_moves r));
                   ("total_pins", Int (total_pins r));
                   ( "apps",
                     List
                       (each
                          (fun m ->
                            Obj
                              [
                                ("app", String m.Runner.app_name);
                                ("gamma", Float m.Runner.gamma);
                                ("alpha", Float m.Runner.alpha);
                                ("beta", Float m.Runner.beta);
                                ("times", Runner.times_to_json m.Runner.times);
                                ("moves", Int m.Runner.r_numa.Report.numa_moves);
                                ("pins", Int m.Runner.r_numa.Report.pins);
                              ])
                          r) );
                 ])
             rows) );
    ]
