(* [vals.(i)] was added with hash [hashes.(i)]. The first [len] slots are
   sorted by bucket descending and, within a bucket, oldest first: the
   order [Hashtbl.fold] conses its values in. *)
type 'a t = {
  mutable vals : 'a array;
  mutable hashes : int array;
  mutable len : int;
  mutable width : int;  (** the table's bucket count *)
}

let initial_width = 16

let create () = { vals = [||]; hashes = [||]; len = 0; width = initial_width }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Hash_order.get: index out of range";
  t.vals.(i)

let to_list t =
  let l = ref [] in
  for i = t.len - 1 downto 0 do
    l := t.vals.(i) :: !l
  done;
  !l

(* Store [v], of hash [h], at slot [i] or below it, past every value of a
   lower bucket: [Hashtbl] puts a new binding at the head of its bucket's
   chain, which its fold conses last. *)
let sift t i v h =
  let b = h land (t.width - 1) in
  let i = ref i in
  while !i > 0 && t.hashes.(!i - 1) land (t.width - 1) < b do
    t.vals.(!i) <- t.vals.(!i - 1);
    t.hashes.(!i) <- t.hashes.(!i - 1);
    decr i
  done;
  t.vals.(!i) <- v;
  t.hashes.(!i) <- h

(* Past twice as many values as buckets, [Hashtbl] doubles its buckets
   and moves each chain's cells, in chain order, onto the tails of their
   new chains; a stable sort by the new bucket does the same here. *)
let add t ~hash v =
  if t.len = Array.length t.vals then begin
    t.vals <- Rows.fit t.vals t.len v;
    t.hashes <- Rows.fit t.hashes t.len 0
  end;
  sift t t.len v hash;
  t.len <- t.len + 1;
  if t.len > 2 * t.width then begin
    t.width <- 2 * t.width;
    for i = 1 to t.len - 1 do
      sift t i t.vals.(i) t.hashes.(i)
    done
  end

let remove t ~same v =
  let i = ref 0 in
  while !i < t.len && not (same v t.vals.(!i)) do
    incr i
  done;
  if !i < t.len then begin
    for j = !i to t.len - 2 do
      t.vals.(j) <- t.vals.(j + 1);
      t.hashes.(j) <- t.hashes.(j + 1)
    done;
    t.len <- t.len - 1
  end

let reset t =
  t.len <- 0;
  t.width <- initial_width
