type t = Load | Store

let to_string = function Load -> "load" | Store -> "store"

let pp ppf t = Format.pp_print_string ppf (to_string t)
