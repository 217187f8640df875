(* Exact counts in pages of 64 consecutive keys. A key's page id is
   [key asr page_bits] and its slot in the page [key land (page_keys - 1)];
   the counts live in one flat int array, [page_keys] per page, with pages
   numbered in the order they first appear. A small open-addressing table
   (Fibonacci hashing, linear probing) maps a page id to its page number.
   Latencies cluster, so a run's keys fill few pages, and adding to a key
   touches one table slot and one line of counts. Memory follows the
   number of touched pages, not the size of the keys.

   Ordered queries sort the page numbers by id once per new page and walk
   each page in key order: a new key in a known page keeps the order. *)

let page_bits = 6
let page_keys = 1 lsl page_bits

(* floor (2^62 / golden ratio), made odd: Fibonacci hashing on 63-bit ints. *)
let mix = 0x278dde6e5fd29e01

type t = {
  mutable ids : int array;  (** page id of each page number *)
  mutable counts : int array;  (** [page_keys] counts per page number *)
  mutable pages : int;  (** page numbers in use *)
  mutable table : int array;  (** a page number per slot, -1 = empty; twice [ids]' length *)
  mutable shift : int;  (** [63 - log2 (length table)]: keeps the product's top bits *)
  mutable total : int;
  mutable order : int array;  (** page numbers in increasing id order, once it has [pages] entries *)
}

(* One empty slot and no pages: an unused histogram costs a few words, and
   the first page grows the arrays like any other. *)
let create () =
  { ids = [||]; counts = [||]; pages = 0; table = [| -1 |]; shift = 63; total = 0; order = [||] }

(* The table slot holding page [id], or the empty slot where it belongs. *)
let rec probe t id mask i =
  let p = t.table.(i) in
  if p < 0 || t.ids.(p) = id then i else probe t id mask ((i + 1) land mask)

let slot t id = probe t id (Array.length t.table - 1) ((id * mix) lsr t.shift)

(* Double the pages' room; the table stays twice as long, so at most half
   full. *)
let grow t =
  let room = max 1 (2 * Array.length t.ids) in
  let ids = Array.make room 0 and counts = Array.make (room * page_keys) 0 in
  Array.blit t.ids 0 ids 0 t.pages;
  Array.blit t.counts 0 counts 0 (t.pages * page_keys);
  t.ids <- ids;
  t.counts <- counts;
  t.table <- Array.make (2 * room) (-1);
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  t.shift <- 63 - log2 (2 * room);
  for p = 0 to t.pages - 1 do
    t.table.(slot t ids.(p)) <- p
  done

(* The page number of page [id], made if absent. *)
let rec page t id =
  let s = slot t id in
  let p = t.table.(s) in
  if p >= 0 then p
  else if t.pages = Array.length t.ids then begin
    grow t;
    page t id
  end
  else begin
    let p = t.pages in
    t.table.(s) <- p;
    t.ids.(p) <- id;
    t.pages <- p + 1;
    p
  end

let add_many t key n =
  if n < 0 then invalid_arg "Histogram.add_many: negative count";
  if n > 0 then begin
    let i = (page t (key asr page_bits) lsl page_bits) lor (key land (page_keys - 1)) in
    t.counts.(i) <- t.counts.(i) + n;
    t.total <- t.total + n
  end

let add t key = add_many t key 1

let count t key =
  let p = t.table.(slot t (key asr page_bits)) in
  if p < 0 then 0 else t.counts.((p lsl page_bits) lor (key land (page_keys - 1)))

let total t = t.total

let order t =
  if Array.length t.order <> t.pages then begin
    let ids = t.ids in
    let order = Array.init t.pages Fun.id in
    Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
    t.order <- order
  end;
  t.order

let to_sorted_list t =
  Array.fold_right
    (fun p acc ->
      let acc = ref acc in
      for j = page_keys - 1 downto 0 do
        let n = t.counts.((p lsl page_bits) lor j) in
        if n <> 0 then acc := ((t.ids.(p) lsl page_bits) lor j, n) :: !acc
      done;
      !acc)
    (order t) []

let keys t = List.map fst (to_sorted_list t)

let mean t =
  if t.total = 0 then 0.
  else begin
    (* Float addition is not associative: summing in ascending key order
       keeps the mean independent of the order the pages appeared in. *)
    let order = order t and weighted = ref 0. in
    for o = 0 to t.pages - 1 do
      let p = order.(o) in
      for j = 0 to page_keys - 1 do
        let n = t.counts.((p lsl page_bits) lor j) in
        if n <> 0 then
          weighted :=
            !weighted +. (float_of_int ((t.ids.(p) lsl page_bits) lor j) *. float_of_int n)
      done
    done;
    !weighted /. float_of_int t.total
  end

(* Every page holds a non-zero count, so the largest page's top one is
   the largest key. *)
let max_key t =
  if t.pages = 0 then 0
  else
    let p = (order t).(t.pages - 1) in
    let rec top j = if t.counts.((p lsl page_bits) lor j) <> 0 then j else top (j - 1) in
    (t.ids.(p) lsl page_bits) lor top (page_keys - 1)

let percentile t p =
  if not (p >= 0. && p <= 100.) then invalid_arg "Histogram.percentile: p must be in [0,100]";
  if t.total = 0 then 0
  else begin
    (* Nearest-rank: the smallest key whose cumulative count reaches
       ceil(p/100 * total); p = 0 gives the smallest recorded key. *)
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.total))) in
    let order = order t in
    (* [o] walks [order], [j] the slots of its page. *)
    let rec scan o j cum =
      if o = t.pages then 0
      else
        let p = order.(o) in
        let cum = cum + t.counts.((p lsl page_bits) lor j) in
        if cum >= rank then (t.ids.(p) lsl page_bits) lor j
        else if j = page_keys - 1 then scan (o + 1) 0 cum
        else scan o (j + 1) cum
    in
    scan 0 0 0
  end

let pp ppf t =
  List.iter
    (fun (k, n) -> Format.fprintf ppf "%d: %d@." k n)
    (to_sorted_list t)
