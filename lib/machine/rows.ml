let fit row i pad =
  let n = Array.length row in
  if i < n then row
  else begin
    let grown = Array.make (max (i + 1) (2 * n)) pad in
    Array.blit row 0 grown 0 n;
    grown
  end

let get rows i j =
  if i < 0 || i >= Array.length rows then None
  else
    let row = rows.(i) in
    if j < 0 || j >= Array.length row then None else row.(j)

(* The row is stored back only when it grew, which spares the write
   barrier on every other set. *)
let set rows i j v =
  let row = rows.(i) in
  if j < Array.length row then row.(j) <- v
  else begin
    let row = fit row j None in
    rows.(i) <- row;
    row.(j) <- v
  end
