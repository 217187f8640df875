type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let rec plain s i =
  i = String.length s
  || (match String.unsafe_get s i with '"' | '\\' | '\000' .. '\031' -> false | _ -> true)
     && plain s (i + 1)

(* Most keys and values need no escaping and are copied in one go. *)
let add_escaped buf s =
  if plain s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

let add_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* [string_of_int]'s digits, without the C call or the string. The digits
   come from the non-positive [n] so that [min_int] needs no special case. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

(* The C primitive behind Printf's float conversions, without the format
   interpreter in front of it. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^k for 0 <= k <= 12, each an exact double. A [match], not a table, so
   the module allocates nothing when it is initialised. *)
let pow10 = function
  | 0 -> 1. | 1 -> 10. | 2 -> 100. | 3 -> 1e3 | 4 -> 1e4 | 5 -> 1e5 | 6 -> 1e6
  | 7 -> 1e7 | 8 -> 1e8 | 9 -> 1e9 | 10 -> 1e10 | 11 -> 1e11 | _ -> 1e12

(* The [n] low digits of [d], most significant first, with a point before
   the digit at index [point]. *)
let rec add_fixed buf d n point =
  if n > 1 then add_fixed buf (d / 10) (n - 1) point;
  if n - 1 = point then Buffer.add_char buf '.';
  Buffer.add_char buf (Char.unsafe_chr (48 + (d mod 10)))

(* "%.12g" of f with 1 <= |f| < 1e12, rounded exactly as printf rounds it.
   With 10^x <= |f| < 10^(x+1), the 12 digits are d = round(|f| * 10^(11-x)).
   The product p is rounded, but fma gives its exact error e, so p + e is
   the exact product. t = frac(p) - 1/2 is exact and a multiple of
   ulp(p), while |e| <= ulp(p)/2, so t's sign decides unless t = 0; then
   e's sign decides, and an exact tie goes to even, as printf's does. A d
   that carries into a 13th digit changes the exponent, and possibly the
   notation: it goes to [format_float]. *)
let add_g12 buf f =
  let a = Float.abs f in
  let x = ref 0 in
  while !x < 11 && a >= pow10 (!x + 1) do
    incr x
  done;
  let x = !x in
  let s = pow10 (11 - x) in
  let p = a *. s in
  let e = Float.fma a s (-.p) in
  let fl = int_of_float p in
  let t = p -. float_of_int fl -. 0.5 in
  let up = t > 0. || (t = 0. && (e > 0. || (e = 0. && fl land 1 = 1))) in
  let d = if up then fl + 1 else fl in
  if d >= 1_000_000_000_000 then Buffer.add_string buf (format_float "%.12g" f)
  else begin
    if f < 0. then Buffer.add_char buf '-';
    let d = ref d and n = ref 12 in
    while !n > x + 1 && !d mod 10 = 0 do
      d := !d / 10;
      decr n
    done;
    add_fixed buf !d !n (x + 1)
  end

let add_float buf f =
  (* JSON has no inf/nan literals; a cost that overflowed the model is a
     bug upstream, but the export must stay loadable. *)
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    (* What "%.1f" prints for an integral value, -0.0 included. *)
    if f = 0. && Float.sign_bit f then Buffer.add_string buf "-0.0"
    else begin
      add_int buf (int_of_float f);
      Buffer.add_string buf ".0"
    end
  else if Float.abs f >= 1. && Float.abs f < 1e12 then add_g12 buf f
  else Buffer.add_string buf (format_float "%.12g" f)

let float_repr f =
  let buf = Buffer.create 24 in
  add_float buf f;
  Buffer.contents buf

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> add_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 1024 in
  to_buffer buf t;
  Buffer.contents buf

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      to_buffer buf t;
      Buffer.output_buffer oc buf;
      output_char oc '\n')

(* --- parsing ------------------------------------------------------------ *)

exception Parse_failure of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m -> raise (Parse_failure (Printf.sprintf "offset %d: %s" !pos m)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail "expected '%c'" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents buf
        | '\\' ->
            incr pos;
            if !pos >= n then fail "truncated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' -> (
                if !pos + 4 >= n then fail "truncated \\u escape";
                match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                | None -> fail "bad \\u escape"
                | Some code ->
                    (* Decode the BMP code point as UTF-8 (the emitter only
                       produces escaped control characters, all < 0x80). *)
                    if code < 0x80 then Buffer.add_char buf (Char.chr code)
                    else if code < 0x800 then begin
                      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                    end
                    else begin
                      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                    end;
                    pos := !pos + 4)
            | c -> fail "bad escape '\\%c'" c);
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                member ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          member ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec element () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                element ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          element ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character '%c'" c
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "offset %d: trailing garbage" !pos)
    else Ok v
  with Parse_failure m -> Error m

let load path =
  match
    In_channel.with_open_text path (fun ic -> In_channel.input_all ic)
  with
  | exception Sys_error m -> Error m
  | contents -> parse contents

let member t key =
  match t with Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None

(* --- parser-less structural validation --------------------------------- *)

let check_structure s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let n = String.length s in
  if n = 0 then err "empty document"
  else begin
    let stack = ref [] in
    let in_string = ref false in
    let escaped = ref false in
    let bad = ref None in
    let fail i msg = if !bad = None then bad := Some (i, msg) in
    String.iteri
      (fun i c ->
        if !bad <> None then ()
        else if !in_string then begin
          if !escaped then escaped := false
          else if c = '\\' then escaped := true
          else if c = '"' then in_string := false
        end
        else
          match c with
          | '"' -> in_string := true
          | '{' | '[' -> stack := c :: !stack
          | '}' -> (
              match !stack with
              | '{' :: rest -> stack := rest
              | _ -> fail i "unmatched '}'")
          | ']' -> (
              match !stack with
              | '[' :: rest -> stack := rest
              | _ -> fail i "unmatched ']'")
          | _ -> ())
      s;
    match (!bad, !stack, !in_string) with
    | Some (i, msg), _, _ -> err "offset %d: %s" i msg
    | None, _ :: _, _ -> err "unclosed bracket at end of document"
    | None, [], true -> err "unterminated string at end of document"
    | None, [], false -> Ok ()
  end
