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

(* Slot indices are sorted by their (distinct) keys in place, with no
   scratch array and no comparison closure. The occupied slots, taken in
   table order, already run mostly upward (a key's low bits stay in its
   slot), so quicksort with insertion sort on short ranges beats a heap
   sort. A range still unsorted log2 n levels down is heap sorted
   instead, which keeps the worst case O(n log n); the model tests reach
   that depth, so both paths run under them. Ranges are [lo, hi), and
   [keys] is typed [int array] so that comparisons compile to integer
   compares rather than calls to the polymorphic compare. *)

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let insertion_sort (keys : int array) a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let kx = keys.(x) in
    let j = ref (i - 1) in
    while !j >= lo && keys.(a.(!j)) > kx do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Fill the hole at heap position [i] of the [n]-entry heap starting at
   [lo], moving larger children up until slot [x] (key [kx]) fits. *)
let rec sift (keys : int array) a lo n i x kx =
  let l = (2 * i) + 1 in
  if l >= n then a.(lo + i) <- x
  else begin
    let c = if l + 1 < n && keys.(a.(lo + l)) < keys.(a.(lo + l + 1)) then l + 1 else l in
    let y = a.(lo + c) in
    if kx < keys.(y) then begin
      a.(lo + i) <- y;
      sift keys a lo n c x kx
    end
    else a.(lo + i) <- x
  end

let heap_sort (keys : int array) a lo hi =
  let n = hi - lo in
  for i = (n / 2) - 1 downto 0 do
    let x = a.(lo + i) in
    sift keys a lo n i x keys.(x)
  done;
  for last = n - 1 downto 1 do
    let x = a.(lo + last) in
    a.(lo + last) <- a.(lo);
    sift keys a lo last 0 x keys.(x)
  done

let rec introsort (keys : int array) a lo hi depth =
  if hi - lo <= 16 then insertion_sort keys a lo hi
  else if depth = 0 then heap_sort keys a lo hi
  else begin
    (* Median of three into [mid]; the ends then stop both scans. *)
    let mid = lo + ((hi - lo) / 2) in
    if keys.(a.(mid)) < keys.(a.(lo)) then swap a mid lo;
    if keys.(a.(hi - 1)) < keys.(a.(lo)) then swap a (hi - 1) lo;
    if keys.(a.(hi - 1)) < keys.(a.(mid)) then swap a (hi - 1) mid;
    let pivot = keys.(a.(mid)) in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while keys.(a.(!i)) < pivot do incr i done;
      while keys.(a.(!j)) > pivot do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    introsort keys a lo (!j + 1) (depth - 1);
    introsort keys a !i hi (depth - 1)
  end

let sort_by_key keys slots =
  let n = Array.length slots in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  introsort keys slots 0 n (log2 n)

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
      sort_by_key t.keys slots;
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
