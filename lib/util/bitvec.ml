type t = { bits : Bytes.t; length : int }

let create n =
  if n < 0 then invalid_arg "Bitvec.create: negative length";
  { bits = Bytes.make ((n + 7) / 8) '\000'; length = n }

let length t = t.length

let check t i =
  if i < 0 || i >= t.length then invalid_arg "Bitvec: index out of range"

let get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let byte = i lsr 3 in
  Bytes.unsafe_set t.bits byte
    (Char.chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let byte = i lsr 3 in
  Bytes.unsafe_set t.bits byte
    (Char.chr (Char.code (Bytes.unsafe_get t.bits byte) land lnot (1 lsl (i land 7)) land 0xff))

let assign t i b = if b then set t i else clear t i

let fill t b =
  let c = if b then '\255' else '\000' in
  Bytes.fill t.bits 0 (Bytes.length t.bits) c;
  (* Keep bits beyond [length] zero so popcount stays correct. *)
  if b && t.length land 7 <> 0 then begin
    let last = Bytes.length t.bits - 1 in
    let keep = (1 lsl (t.length land 7)) - 1 in
    Bytes.set t.bits last (Char.chr (Char.code (Bytes.get t.bits last) land keep))
  end

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let popcount t =
  let n = ref 0 in
  for i = 0 to Bytes.length t.bits - 1 do
    n := !n + popcount_byte (Bytes.unsafe_get t.bits i)
  done;
  !n

let union_into ~dst src =
  if dst.length <> src.length then invalid_arg "Bitvec.union_into: length mismatch";
  for i = 0 to Bytes.length dst.bits - 1 do
    Bytes.unsafe_set dst.bits i
      (Char.chr
         (Char.code (Bytes.unsafe_get dst.bits i)
         lor Char.code (Bytes.unsafe_get src.bits i)))
  done

let equal a b = a.length = b.length && Bytes.equal a.bits b.bits
