type align = Left | Right

type row = Cells of string list | Rule

type t = { headers : string list; aligns : align array; mutable rows : row list }

let create ~columns =
  {
    headers = List.map fst columns;
    aligns = Array.of_list (List.map snd columns);
    rows = [];
  }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Text_table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
      cells
  in
  measure t.headers;
  List.iter (function Cells cells -> measure cells | Rule -> ()) rows;
  let buf = Buffer.create 256 in
  let emit_cells cells =
    let line = Buffer.create 80 in
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string line "  ";
        Buffer.add_string line (pad t.aligns.(i) widths.(i) c))
      cells;
    (* Trim trailing padding so lines have no dangling spaces. *)
    let s = Buffer.contents line in
    let rec trim n = if n > 0 && s.[n - 1] = ' ' then trim (n - 1) else n in
    Buffer.add_string buf (String.sub s 0 (trim (String.length s)));
    Buffer.add_char buf '\n'
  in
  let emit_rule () =
    let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
    Buffer.add_string buf (String.make total '-');
    Buffer.add_char buf '\n'
  in
  emit_cells t.headers;
  emit_rule ();
  List.iter (function Cells cells -> emit_cells cells | Rule -> emit_rule ()) rows;
  Buffer.contents buf

type 'r column = string * align * ('r -> string)

let of_rows ~columns rows =
  let t = create ~columns:(List.map (fun (header, align, _) -> (header, align)) columns) in
  List.iter (fun r -> add_row t (List.map (fun (_, _, cell) -> cell r) columns)) rows;
  render t

let cell_f1 x = Printf.sprintf "%.1f" x
let cell_f2 x = Printf.sprintf "%.2f" x
let cell_pct x = Printf.sprintf "%.1f%%" x
let cell_int = string_of_int
