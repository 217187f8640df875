type slot = Empty | Resident of int | Paged_out of int

type t = { id : int; name : string; slots : slot array }

let create ~id ~name ~size_pages =
  if size_pages < 0 then invalid_arg "Vm_object.create: negative size";
  { id; name; slots = Array.make size_pages Empty }

let id t = t.id
let name t = t.name
let size_pages t = Array.length t.slots

let check t offset =
  if offset < 0 || offset >= size_pages t then
    invalid_arg "Vm_object: page offset out of range"

let slot t ~offset =
  check t offset;
  t.slots.(offset)

let lpage_for t ~pool ~(ops : Pmap_intf.ops) ~offset =
  check t offset;
  match t.slots.(offset) with
  | Resident lpage -> Ok lpage
  | (Empty | Paged_out _) as slot ->
      let lpage = Lpage_pool.alloc pool in
      if lpage < 0 then Error `Pool_exhausted
      else begin
        (match slot with
        | Paged_out content -> ops.install_page ~lpage ~content
        | Empty | Resident _ -> ops.zero_page ~lpage);
        t.slots.(offset) <- Resident lpage;
        Ok lpage
      end

let page_out t ~pool ~(ops : Pmap_intf.ops) ~offset =
  check t offset;
  match t.slots.(offset) with
  | Empty | Paged_out _ -> ()
  | Resident lpage ->
      let content = ops.extract_content ~lpage in
      ops.remove_all ~lpage;
      t.slots.(offset) <- Paged_out content;
      Lpage_pool.free pool lpage

let resident_pages t =
  let acc = ref [] in
  Array.iteri
    (fun offset -> function
      | Resident lpage -> acc := (offset, lpage) :: !acc
      | Empty | Paged_out _ -> ())
    t.slots;
  List.rev !acc
