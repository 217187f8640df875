(* [cleanup] is the page's pending free tag, -1 for none: a tag is never
   negative. *)
type slot = { mutable allocated : bool; mutable cleanup : Pmap_intf.free_tag }

(* The free pages are a stack, [free.(n_free - 1)] on top: a free pushes
   and [alloc] pops, so the page freed last goes out first, and a fresh
   pool hands out page 0, then 1, 2 and on. *)
type t = {
  slots : slot array;
  free : int array;
  mutable n_free : int;
  ops : Pmap_intf.ops;
}

let create (config : Numa_machine.Config.t) ~ops =
  let n = config.global_pages in
  {
    slots = Array.init n (fun _ -> { allocated = false; cleanup = -1 });
    free = Array.init n (fun i -> n - 1 - i);
    n_free = n;
    ops;
  }

let size t = Array.length t.slots
let n_free t = t.n_free
let n_allocated t = size t - t.n_free

let alloc t =
  if t.n_free = 0 then -1
  else begin
    t.n_free <- t.n_free - 1;
    let lpage = t.free.(t.n_free) in
    let slot = t.slots.(lpage) in
    (* Reallocation point: wait for any lazy cleanup left from the
       previous life of this frame (pmap_free_page_sync). *)
    if slot.cleanup >= 0 then begin
      t.ops.free_page_sync slot.cleanup;
      slot.cleanup <- -1
    end;
    slot.allocated <- true;
    lpage
  end

let free t lpage =
  if lpage < 0 || lpage >= size t then invalid_arg "Lpage_pool.free: out of range";
  let slot = t.slots.(lpage) in
  if not slot.allocated then invalid_arg "Lpage_pool.free: double free";
  slot.allocated <- false;
  slot.cleanup <- t.ops.free_page ~lpage;
  t.free.(t.n_free) <- lpage;
  t.n_free <- t.n_free + 1

let is_allocated t lpage =
  lpage >= 0 && lpage < size t && t.slots.(lpage).allocated
