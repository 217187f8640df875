(* Exact counts in an open-addressing table: two flat int arrays with a
   power-of-two capacity and linear probing, where a count of 0 marks an
   empty slot. A key's slot keeps its low [low_bits] bits and puts a
   multiplicative mix of the rest above them, so nearby keys (the bulk of
   a latency distribution) sit in neighbouring slots and share cache
   lines. The table doubles at half load, so memory follows the number of
   distinct keys, not their size.

   Ordered queries sort the occupied slots by key once and keep that
   order until a new key arrives: adding to a known key moves no slot. *)

let low_bits = 6
let min_capacity = 1 lsl (low_bits + 1)

(* floor (2^62 / golden ratio), made odd: Fibonacci hashing on 63-bit ints. *)
let mix = 0x278dde6e5fd29e01

type t = {
  mutable keys : int array;
  mutable counts : int array;  (** 0 = empty slot *)
  mutable shift : int;  (** [63 - (log2 capacity - low_bits)]: keeps the product's top bits *)
  mutable distinct : int;
  mutable total : int;
  mutable sorted : int array option;  (** occupied slots in increasing key order *)
}

(* The arrays stay empty until the first key, so an unused histogram costs
   one small record. *)
let create () = { keys = [||]; counts = [||]; shift = 0; distinct = 0; total = 0; sorted = None }

let home t key =
  ((((key asr low_bits) * mix) lsr t.shift) lsl low_bits) lor (key land ((1 lsl low_bits) - 1))

let rec probe t key mask i =
  if t.counts.(i) = 0 || t.keys.(i) = key then i else probe t key mask ((i + 1) land mask)

(* The slot holding [key], or the empty slot where it belongs. *)
let find t key =
  let mask = Array.length t.counts - 1 in
  probe t key mask (home t key land mask)

let resize t capacity =
  let keys = t.keys and counts = t.counts in
  t.keys <- Array.make capacity 0;
  t.counts <- Array.make capacity 0;
  (* capacity = 2^b with b > low_bits: the mix contributes b - low_bits bits. *)
  let rec log2 c = if c = 1 then 0 else 1 + log2 (c lsr 1) in
  t.shift <- 63 - (log2 capacity - low_bits);
  Array.iteri
    (fun i n ->
      if n <> 0 then begin
        let j = find t keys.(i) in
        t.keys.(j) <- keys.(i);
        t.counts.(j) <- n
      end)
    counts

let add_many t key n =
  if n < 0 then invalid_arg "Histogram.add_many: negative count";
  if n > 0 then begin
    if Array.length t.counts = 0 then resize t min_capacity;
    let i = find t key in
    let current = t.counts.(i) in
    t.counts.(i) <- current + n;
    t.total <- t.total + n;
    if current = 0 then begin
      t.keys.(i) <- key;
      t.distinct <- t.distinct + 1;
      t.sorted <- None;
      if 2 * t.distinct > Array.length t.counts then resize t (2 * Array.length t.counts)
    end
  end

let add t key = add_many t key 1

let count t key = if t.distinct = 0 then 0 else t.counts.(find t key)

let total t = t.total

let sorted_slots t =
  match t.sorted with
  | Some slots -> slots
  | None ->
      let slots = Array.make t.distinct 0 and next = ref 0 in
      Array.iteri
        (fun i n ->
          if n <> 0 then begin
            slots.(!next) <- i;
            incr next
          end)
        t.counts;
      let keys = t.keys in
      Array.sort (fun a b -> Int.compare keys.(a) keys.(b)) slots;
      t.sorted <- Some slots;
      slots

let to_sorted_list t =
  Array.fold_right (fun i acc -> (t.keys.(i), t.counts.(i)) :: acc) (sorted_slots t) []

let keys t = Array.fold_right (fun i acc -> t.keys.(i) :: acc) (sorted_slots t) []

let mean t =
  if t.total = 0 then 0.
  else
    (* Float addition is not associative: summing in ascending key order
       keeps the mean independent of where keys sit in the table. *)
    let weighted =
      Array.fold_left
        (fun acc i -> acc +. (float_of_int t.keys.(i) *. float_of_int t.counts.(i)))
        0. (sorted_slots t)
    in
    weighted /. float_of_int t.total

let max_key t = if t.distinct = 0 then 0 else t.keys.((sorted_slots t).(t.distinct - 1))

let percentile t p =
  if not (p >= 0. && p <= 100.) then invalid_arg "Histogram.percentile: p must be in [0,100]";
  if t.total = 0 then 0
  else begin
    (* Nearest-rank: the smallest key whose cumulative count reaches
       ceil(p/100 * total); p = 0 gives the smallest recorded key. *)
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.total))) in
    let slots = sorted_slots t in
    let rec scan j cum =
      if j = t.distinct then 0
      else
        let i = slots.(j) in
        let cum = cum + t.counts.(i) in
        if cum >= rank then t.keys.(i) else scan (j + 1) cum
    in
    scan 0 0
  end

let pp ppf t =
  List.iter
    (fun (k, n) -> Format.fprintf ppf "%d: %d@." k n)
    (to_sorted_list t)
