let isqrt n =
  if n < 0 then invalid_arg "isqrt: negative";
  if n < 2 then n
  else begin
    let s = ref (int_of_float (sqrt (float_of_int n))) in
    while !s * !s > n do
      decr s
    done;
    while (!s + 1) * (!s + 1) <= n do
      incr s
    done;
    !s
  end

(* Odd numbers only, one byte each: byte [i] stands for [2i + 1], so the
   sieve of 10M takes 5 MB. Prime [p] marks p*p, p*p + 2p, ..., which is
   every [p]-th byte from p*p's. *)
let primes_upto n =
  if n < 2 then [||]
  else begin
    let half = (n - 1) / 2 in
    let composite = Bytes.make (half + 1) '\000' in
    let i = ref 1 in
    while ((2 * !i) + 1) * ((2 * !i) + 1) <= n do
      if Bytes.get composite !i = '\000' then begin
        let p = (2 * !i) + 1 in
        let j = ref ((p * p) / 2) in
        while !j <= half do
          Bytes.set composite !j '\001';
          j := !j + p
        done
      end;
      incr i
    done;
    let count = ref 1 in
    for i = 1 to half do
      if Bytes.get composite i = '\000' then incr count
    done;
    let out = Array.make !count 2 in
    let k = ref 1 in
    for i = 1 to half do
      if Bytes.get composite i = '\000' then begin
        out.(!k) <- (2 * i) + 1;
        incr k
      end
    done;
    out
  end

(* Bit i of the odd-number vector represents value 2i + 3. Prime p marks
   odd multiples p*p, p*(p+2), ... i.e. values p*p + 2kp. *)
let count_odd_multiples_in_bit_range ~p ~lo_bit ~hi_bit ~limit =
  if p < 3 then invalid_arg "count_odd_multiples_in_bit_range: p must be odd >= 3";
  let value_of_bit i = (2 * i) + 3 in
  let lo_v = value_of_bit lo_bit and hi_v = min (value_of_bit hi_bit) limit in
  let first = p * p in
  if first > hi_v then 0
  else begin
    (* Smallest odd multiple of p that is >= max(first, lo_v). *)
    let start = max first lo_v in
    let m = (start + p - 1) / p in
    let m = if m mod 2 = 0 then m + 1 else m in
    let m = max m p in
    let first_val = m * p in
    if first_val > hi_v then 0 else ((hi_v - first_val) / (2 * p)) + 1
  end
