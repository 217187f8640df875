type local_frame = { node : int; id : int; mutable cell : int; mutable lpage : int }

(* A pool mints its frames on first use: [free] is a stack of the freed
   ones, the most recent on top at [n_free - 1], and ids [fresh] and up
   have never been handed out. So the pool allocates in the order of one
   list holding every frame, freed ones first, most recent first, then
   the unused ids ascending; a free pushes and allocates nothing. *)
type node_pool = {
  capacity : int;
  mutable free : local_frame array;
  mutable n_free : int;
  mutable fresh : int;
  mutable in_use : int;
  free_ids : Bytes.t;  (** one flag per id, set while the frame is free: catches double frees *)
  mutable online : bool;  (** offline pools refuse allocation *)
  mutable limit : int;  (** effective capacity; squeezed below [capacity] by faults *)
  mutable pt_in_use : int;  (** frames of [in_use] backing page-table pages *)
}

type t = {
  globals : int array;
  pools : node_pool array;
  mutable paging : Paging.t option;
}

let create (config : Config.t) =
  let topo = Config.topology config in
  let make_pool node =
    let capacity = Topo.pool_pages topo ~node in
    {
      capacity;
      free = [||];
      n_free = 0;
      fresh = 0;
      in_use = 0;
      free_ids = Bytes.make capacity '\001';
      online = true;
      limit = capacity;
      pt_in_use = 0;
    }
  in
  {
    globals = Array.make config.global_pages 0;
    pools = Array.init (Topo.cpu_nodes topo) make_pool;
    paging = None;
  }

let attach_paging t paging = t.paging <- Some paging
let paging t = t.paging

let mark_dirty t ~lpage =
  match t.paging with
  | Some p when lpage >= 0 -> Paging.mark_dirty p ~lpage
  | _ -> ()

let read_global t ~lpage = t.globals.(lpage)

let write_global t ~lpage v =
  t.globals.(lpage) <- v;
  mark_dirty t ~lpage

let alloc_local t ~node =
  let pool = t.pools.(node) in
  if (not pool.online) || pool.in_use >= pool.limit then None
  else begin
    (* [in_use < limit <= capacity], so a frame is freed or still fresh. *)
    let frame =
      if pool.n_free > 0 then begin
        pool.n_free <- pool.n_free - 1;
        pool.free.(pool.n_free)
      end
      else begin
        let frame = { node; id = pool.fresh; cell = 0; lpage = -1 } in
        pool.fresh <- pool.fresh + 1;
        frame
      end
    in
    pool.in_use <- pool.in_use + 1;
    Bytes.set pool.free_ids frame.id '\000';
    frame.cell <- 0;
    frame.lpage <- -1;
    Some frame
  end

let free_local t frame =
  let pool = t.pools.(frame.node) in
  if Bytes.get pool.free_ids frame.id <> '\000' then
    invalid_arg
      (Printf.sprintf "Frame_table.free_local: double free of frame %d on node %d"
         frame.id frame.node);
  Bytes.set pool.free_ids frame.id '\001';
  if pool.n_free = Array.length pool.free then
    pool.free <- Rows.fit pool.free pool.n_free frame;
  pool.free.(pool.n_free) <- frame;
  pool.n_free <- pool.n_free + 1;
  pool.in_use <- pool.in_use - 1;
  frame.lpage <- -1

(* Page-table pages draw from the same pools as data pages — that is the
   point: table pages compete for local memory and are visible to
   pressure. The pt counter only tracks the split for the census. *)
let alloc_pt t ~node =
  match alloc_local t ~node with
  | None -> None
  | Some frame ->
      let pool = t.pools.(node) in
      pool.pt_in_use <- pool.pt_in_use + 1;
      Some frame

let free_pt t frame =
  let pool = t.pools.(frame.node) in
  if pool.pt_in_use <= 0 then
    invalid_arg
      (Printf.sprintf
         "Frame_table.free_pt: frame %d on node %d was not allocated as a page-table \
          page"
         frame.id frame.node);
  pool.pt_in_use <- pool.pt_in_use - 1;
  free_local t frame

let pt_in_use t ~node = t.pools.(node).pt_in_use

let n_pools t = Array.length t.pools

let local_in_use t ~node = t.pools.(node).in_use

let local_capacity t ~node =
  let pool = t.pools.(node) in
  if pool.online then pool.limit else 0

let node_online t ~node = t.pools.(node).online
let set_node_online t ~node online = t.pools.(node).online <- online

let squeeze t ~node ~frac =
  if frac < 0. || frac > 1. then invalid_arg "Frame_table.squeeze: frac not in [0,1]";
  let pool = t.pools.(node) in
  (* In-use frames above the new limit stay allocated; the squeeze only
     gates future allocations, like a real balloon driver. Round half-up:
     plain truncation undershoots on binary-float artifacts (0.3 * 10 =
     2.9999... would squeeze a 10-frame pool to 2, and frac = 1.0 could
     fail to restore full capacity). *)
  pool.limit <- int_of_float ((frac *. float_of_int pool.capacity) +. 0.5);
  pool.limit

let id_is_free t ~node ~id = Bytes.get t.pools.(node).free_ids id <> '\000'
let frame_is_free t (frame : local_frame) = id_is_free t ~node:frame.node ~id:frame.id

let read_local (f : local_frame) = f.cell

let write_local t (f : local_frame) v =
  f.cell <- v;
  mark_dirty t ~lpage:f.lpage

let copy_global_to_local t ~lpage frame =
  frame.cell <- t.globals.(lpage);
  frame.lpage <- lpage

(* Syncing a local copy back to the global master is not a new mutation:
   the store that dirtied the local frame already marked the page, so the
   direct assignment here deliberately bypasses [write_global]'s hook. *)
let copy_local_to_global t frame ~lpage = t.globals.(lpage) <- frame.cell

let zero_local t ~lpage frame =
  frame.cell <- 0;
  frame.lpage <- lpage;
  mark_dirty t ~lpage

let zero_global t ~lpage =
  t.globals.(lpage) <- 0;
  mark_dirty t ~lpage
