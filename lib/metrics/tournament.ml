open Numa_util
module Sys_ = Numa_system.System

type cell = { app_name : string; m : Runner.measurement }

type row = {
  policy : Sys_.policy_spec;
  cells : cell list;
  mean_gamma : float;
  mean_alpha : float;
  mean_beta : float;
  total_moves : int;
  total_pins : int;
}

(* Mean over the cells where the paper would print a number at all;
   ParMult-style apps with no writable sharing make alpha "na" (nan), and
   one nan would otherwise poison the whole policy's column. *)
let mean_defined xs = Sweep.mean (List.filter (fun x -> not (Float.is_nan x)) xs)

let run ?jobs ?policies ?apps ?(spec = Runner.default_spec) () =
  let policies = match policies with Some l -> l | None -> Sys_.builtin_policy_specs in
  let apps = match apps with Some l -> l | None -> Numa_apps.Registry.table4 in
  if policies = [] then invalid_arg "Tournament.run: no policies";
  if apps = [] then invalid_arg "Tournament.run: no apps";
  (* Fan the full policy x app product through the domain pool at once:
     the matrix is embarrassingly parallel and the long pole is whichever
     single measurement is slowest, not whichever policy is. *)
  Sweep.grid ?jobs policies apps (fun p app ->
      let m = Runner.measure app { spec with Runner.policy = p } in
      { app_name = m.Runner.app_name; m })
  |> List.map (fun (policy, cells) ->
         let each f = List.map (fun c -> f c.m) cells in
         let sum f = Sweep.sum (fun c -> f c.m.Runner.r_numa) cells in
         {
           policy;
           cells;
           mean_gamma = Sweep.mean (each (fun m -> m.Runner.gamma));
           mean_alpha = mean_defined (each (fun m -> m.Runner.alpha));
           mean_beta = Sweep.mean (each (fun m -> m.Runner.beta));
           total_moves = sum (fun r -> r.Numa_system.Report.numa_moves);
           total_pins = sum (fun r -> r.Numa_system.Report.pins);
         })
  (* Best policy first: gamma is the user-time expansion over all-local
     (equation 1), so smaller is better. The sort is stable, so ties keep
     registration order. *)
  |> List.stable_sort (fun a b -> Float.compare a.mean_gamma b.mean_gamma)

let render ~topology rows =
  let apps =
    match rows with [] -> [] | r :: _ -> List.map (fun c -> c.app_name) r.cells
  in
  let gamma_of i r = Text_table.cell_f2 (List.nth r.cells i).m.Runner.gamma in
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
              ("mean gamma", Right, fun r -> cell_f2 r.mean_gamma);
              ( "mean alpha",
                Right,
                fun r -> if Float.is_nan r.mean_alpha then "na" else cell_f2 r.mean_alpha );
              ("mean beta", Right, fun r -> cell_f2 r.mean_beta);
              ("moves", Right, fun r -> cell_int r.total_moves);
              ("pins", Right, fun r -> cell_int r.total_pins);
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
                   ("mean_gamma", Float r.mean_gamma);
                   ("mean_alpha", Float r.mean_alpha);
                   ("mean_beta", Float r.mean_beta);
                   ("total_moves", Int r.total_moves);
                   ("total_pins", Int r.total_pins);
                   ( "apps",
                     List
                       (List.map
                          (fun c ->
                            let m = c.m in
                            Obj
                              [
                                ("app", String c.app_name);
                                ("gamma", Float m.Runner.gamma);
                                ("alpha", Float m.Runner.alpha);
                                ("beta", Float m.Runner.beta);
                                ("times", Runner.times_to_json m.Runner.times);
                                ( "moves",
                                  Int m.Runner.r_numa.Numa_system.Report.numa_moves );
                                ("pins", Int m.Runner.r_numa.Numa_system.Report.pins);
                              ])
                          r.cells) );
                 ])
             rows) );
    ]
