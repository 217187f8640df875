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

(* Odd numbers only, one byte each: byte [i] stands for [2i + 1], so a
   sieve of n takes n/2 bytes. Prime [p] marks p*p, p*p + 2p, ..., which
   is every [p]-th byte from p*p's. *)
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

(* One reused [bits]-byte segment at a time, a byte per bit. Each sieving
   prime p carries the bit of its next odd multiple from one segment to
   the next: bit i stands for 2i + 3, so p * p is bit (p * p - 3) / 2 and
   the next odd multiple is p bits on. *)
let primes_per_segment ~limit ~bits =
  if bits <= 0 then invalid_arg "primes_per_segment: bits must be positive";
  let n_bits = max 0 ((limit - 1) / 2) in
  let sieving =
    Array.of_list (List.filter (fun p -> p >= 3) (Array.to_list (primes_upto (isqrt limit))))
  in
  let next = Array.map (fun p -> ((p * p) - 3) / 2) sieving in
  let segment = Bytes.create bits in
  let counts = Array.make ((n_bits + bits - 1) / bits) 0 in
  for s = 0 to Array.length counts - 1 do
    let lo = s * bits in
    let n = min bits (n_bits - lo) in
    Bytes.fill segment 0 n '\000';
    for k = 0 to Array.length sieving - 1 do
      let j = ref next.(k) in
      while !j < lo + n do
        Bytes.set segment (!j - lo) '\001';
        j := !j + sieving.(k)
      done;
      next.(k) <- !j
    done;
    for i = 0 to n - 1 do
      if Bytes.get segment i = '\000' then counts.(s) <- counts.(s) + 1
    done
  done;
  counts
