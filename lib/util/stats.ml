type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable total : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; total = 0.; min = infinity; max = neg_infinity }

(* Welford's online algorithm: numerically stable single-pass mean/variance. *)
let add t x =
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n
let total t = t.total
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let min t = t.min
let max t = t.max

let ratio ~num ~den = if den = 0. then 0. else num /. den
let percent ~num ~den = 100. *. ratio ~num ~den
