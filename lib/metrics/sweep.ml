let grid ?jobs rows cols f =
  let n = List.length cols in
  let cells =
    Array.of_list
      (Parallel.map ?jobs
         (fun (r, c) -> f r c)
         (List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows))
  in
  List.mapi (fun i r -> (r, List.init n (fun j -> cells.((i * n) + j)))) rows

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

module Report = Numa_system.Report

let audits (r : Report.t) =
  match r.Report.robustness with
  | Some rb -> (rb.Report.invariant_checks, rb.Report.invariant_violations)
  | None -> (0, 0)
