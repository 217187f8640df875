(* Order statistics and the comparison rules of the benchmark.

   Quartiles follow Python's [statistics.quantiles(data, n=4)] (the
   default "exclusive" method), so a spread computed here matches the
   one any external reader computes from the same samples. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: no samples";
  let med = median xs in
  if n = 1 then { median = med; q1 = med; q3 = med; n }
  else
    (* statistics.quantiles, method="exclusive": position i*(n+1)/4,
       clamped to the data, interpolated in exact integer arithmetic. *)
    let quartile i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    { median = med; q1 = quartile 1; q3 = quartile 3; n }

let iqr s = s.q3 -. s.q1

let spread s = if s.median = 0. then 0. else iqr s /. Float.abs s.median

type better = Higher | Lower

let better_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | _ -> None

(* [reads_better better a b]: sample [a] is strictly better than [b]. *)
let reads_better better a b = match better with Higher -> a > b | Lower -> a < b

let pair_wins better ~parent ~change =
  List.fold_left2
    (fun (wins, ties) p c ->
      if c = p then (wins, ties + 1)
      else if reads_better better c p then (wins + 1, ties)
      else (wins, ties))
    (0, 0) parent change

(* The share by which [change] reads worse than [parent] (negative when
   it reads better). *)
let worse_by better ~parent ~change =
  if parent = 0. then if change = parent then 0. else infinity
  else
    match better with
    | Higher -> (parent -. change) /. Float.abs parent
    | Lower -> (change -. parent) /. Float.abs parent

type verdict = Gain | Regressed | Unresolved | Same | Differs

let verdict_to_string = function
  | Gain -> "gain"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Same -> "same"
  | Differs -> "DIFFERS"

(* Exact metrics must read identically on both sides. *)
let exact_verdict ~parent ~change = if parent = change then Same else Differs

(* Sampled metrics, paired run by run (the i-th run of each side form
   one pair, run alternately):
   - a gain needs >= 9/10 pair wins (ties count for neither) and a median
     difference larger than the parent's own interquartile range;
   - a regression is a median worse by more than [bound];
   - with a spread wider than [bound] on either side, anything else is
     unresolved, unless every change run beats every parent run. *)
let sampled_verdict better ~bound ~parent ~change =
  if List.length parent <> List.length change then
    invalid_arg "Stats.sampled_verdict: unpaired runs";
  let ps = summarize parent and cs = summarize change in
  let wins, _ties = pair_wins better ~parent ~change in
  let pairs = List.length parent in
  let delta = Float.abs (cs.median -. ps.median) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> reads_better better c p) parent) change
  in
  if wins * 10 >= pairs * 9 && delta > iqr ps then Gain
  else if worse_by better ~parent:ps.median ~change:cs.median > bound then Regressed
  else if (spread ps > bound || spread cs > bound) && not all_better then Unresolved
  else Same
