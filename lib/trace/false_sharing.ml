module Region_attr = Numa_vm.Region_attr

type verdict = Consistent | False_shared | Over_declared | Segregation_candidate

type finding = {
  page : Classify.summary;
  declared : Region_attr.sharing;
  verdict : verdict;
}

(* Read-dominance threshold for flagging a write-shared page whose readers
   could be served by replicas if the rare writes were segregated away. *)
let read_dominance = 20

let judge declared (s : Classify.summary) =
  match (declared, s.Classify.cls) with
  | (Region_attr.Declared_private | Region_attr.Declared_read_shared),
    Classify.Class_write_shared ->
      False_shared
  | Region_attr.Declared_write_shared, Classify.Class_private -> Over_declared
  | Region_attr.Declared_write_shared, Classify.Class_write_shared
    when s.Classify.writes > 0
         && s.Classify.reads >= read_dominance * s.Classify.writes
         && List.length s.Classify.readers > 1 ->
      Segregation_candidate
  | ( ( Region_attr.Declared_private | Region_attr.Declared_read_shared
      | Region_attr.Declared_write_shared ),
      ( Classify.Class_private | Classify.Class_read_shared
      | Classify.Class_write_shared ) ) ->
      Consistent

let analyse ~declared_of summaries =
  List.filter_map
    (fun (s : Classify.summary) ->
      match declared_of ~vpage:s.Classify.vpage with
      | None -> None
      | Some declared -> Some { page = s; declared; verdict = judge declared s })
    summaries

let declared_of_system sys ~vpage =
  match Numa_system.System.region_at sys ~vpage () with
  | None -> None
  | Some r -> Some r.Numa_system.System.attr.Region_attr.sharing

let problems findings = List.filter (fun f -> f.verdict <> Consistent) findings

let verdict_to_string = function
  | Consistent -> "ok"
  | False_shared -> "FALSE SHARING"
  | Over_declared -> "over-declared"
  | Segregation_candidate -> "segregation candidate"

let sharing_to_string = function
  | Region_attr.Declared_private -> "private"
  | Region_attr.Declared_read_shared -> "read-shared"
  | Region_attr.Declared_write_shared -> "write-shared"

let render findings =
  Numa_util.Text_table.(
    of_rows findings
      ~columns:
        [
          ("page", Right, fun f -> cell_int f.page.Classify.vpage);
          ("region", Left, fun f -> f.page.Classify.region);
          ("declared", Left, fun f -> sharing_to_string f.declared);
          ("observed", Left, fun f -> Classify.class_to_string f.page.Classify.cls);
          ("verdict", Left, fun f -> verdict_to_string f.verdict);
        ])
