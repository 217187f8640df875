type zipf = { cdf : float array; guide : int array }

(* [guide.(k)] is the smallest index whose cdf exceeds [k / guide_size],
   so a draw scans forward from its own 1/[guide_size]th of [0, 1). *)
let guide_size = 4096

let zipf ~n ~theta =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  if not (theta >= 0.) then invalid_arg "Dist.zipf: theta must be non-negative";
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  (* Guard against float rounding leaving the last bucket short of 1. *)
  cdf.(n - 1) <- 1.;
  let guide = Array.make guide_size 0 in
  let i = ref 0 in
  for k = 0 to guide_size - 1 do
    let u = float_of_int k /. float_of_int guide_size in
    while cdf.(!i) <= u do
      incr i
    done;
    guide.(k) <- !i
  done;
  { cdf; guide }

let zipf_draw z prng =
  let u = Prng.float prng 1.0 in
  (* Smallest index with cdf.(i) > u. The cdf does not decrease, and u is
     at least the guide entry's k / guide_size, so that index is at or
     after the entry's; u < 1 = cdf.(n - 1) ends the scan. *)
  let i = ref z.guide.(int_of_float (u *. float_of_int guide_size)) in
  while z.cdf.(!i) <= u do
    incr i
  done;
  !i

let zipf_mass z i =
  if i < 0 || i >= Array.length z.cdf then invalid_arg "Dist.zipf_mass: out of range";
  if i = 0 then z.cdf.(0) else z.cdf.(i) -. z.cdf.(i - 1)

let exponential prng ~rate_per_s =
  if not (rate_per_s > 0.) then invalid_arg "Dist.exponential: rate must be positive";
  let u = Prng.float prng 1.0 in
  (* 1 - u is in (0, 1], so the log is finite. *)
  -.Float.log (1. -. u) /. rate_per_s *. 1e9

type arrival = {
  rate_per_s : float;
  burst : float;
  burst_every_ns : float;
  burst_len_ns : float;
}

let arrival ?(burst_every_ns = 60e6) ?(burst_len_ns = 10e6) ~rate_per_s ~burst () =
  if not (rate_per_s > 0.) then invalid_arg "Dist.arrival: rate must be positive";
  if not (burst >= 1.) then invalid_arg "Dist.arrival: burst multiplier must be >= 1";
  if not (burst_len_ns > 0. && burst_every_ns > burst_len_ns) then
    invalid_arg "Dist.arrival: episode must be shorter than its period";
  { rate_per_s; burst; burst_every_ns; burst_len_ns }

let arrival_of_string s =
  let mk rate burst =
    if not (rate > 0.) then Error "arrival rate must be positive"
    else if not (burst >= 1.) then Error "burst multiplier must be >= 1"
    else Ok (arrival ~rate_per_s:rate ~burst ())
  in
  match String.split_on_char ':' s with
  | [ r ] -> (
      match float_of_string_opt r with
      | Some rate -> mk rate 1.
      | None -> Error "expected RATE[:BURST] with RATE a number")
  | [ r; b ] -> (
      match (float_of_string_opt r, float_of_string_opt b) with
      | Some rate, Some burst -> mk rate burst
      | _ -> Error "expected RATE[:BURST] with both numbers")
  | _ -> Error "expected RATE[:BURST]"

let arrival_to_string a = Printf.sprintf "%g:%g" a.rate_per_s a.burst

let in_burst a t =
  a.burst > 1. && Float.rem t a.burst_every_ns < a.burst_len_ns

let arrival_times a prng ~n =
  if n < 0 then invalid_arg "Dist.arrival_times: negative count";
  let times = Array.make n 0. in
  let t = ref 0. in
  for i = 0 to n - 1 do
    let rate = if in_burst a !t then a.rate_per_s *. a.burst else a.rate_per_s in
    let gap = exponential prng ~rate_per_s:rate in
    (* Strictly increasing even if the exponential rounds to zero. *)
    t := !t +. Float.max gap 1.;
    times.(i) <- !t
  done;
  times
