open Numa_machine

type victim = Clock | Lru_approx

let victim_name = function Clock -> "clock" | Lru_approx -> "lru"

let victim_of_string = function
  | "clock" -> Some Clock
  | "lru" | "lru-approx" -> Some Lru_approx
  | _ -> None

type t = {
  pool : Lpage_pool.t;
  ops : Pmap_intf.ops;
  mutable objects : Vm_object.t array;
  mutable total_slots : int;  (** summed size of [objects]; a size never changes *)
  low_water : int;
  high_water : int;
  victim : victim;
  paging : Paging.t option;
  mutable cursor_obj : int;
  mutable cursor_page : int;
  mutable evictions : int;
}

let create ~pool ~ops ?(low_water = 2) ?(high_water = 8) ?(victim = Clock) ?paging () =
  if low_water <= 0 || high_water < low_water then
    invalid_arg "Pageout.create: need 0 < low_water <= high_water";
  {
    pool;
    ops;
    objects = [||];
    total_slots = 0;
    low_water;
    high_water;
    victim;
    paging;
    cursor_obj = 0;
    cursor_page = 0;
    evictions = 0;
  }

let register t obj =
  t.objects <- Array.append t.objects [| obj |];
  t.total_slots <- t.total_slots + Vm_object.size_pages obj

(* In-flight Reading/Writeback entries are pending disk I/O and must never
   be claimed; without a paging machine every resident page is fair game. *)
let claimable t ~lpage =
  match t.paging with Some p -> Paging.evictable p ~lpage | None -> true

(* Evict the page at (obj, offset). Only a Dirty entry pays a writeback —
   synchronously, since the frame is needed now; Clean pages just drop
   (their backing copy is current). *)
let page_out_at t ~by_cpu obj ~offset ~lpage =
  (match t.paging with
  | Some p ->
      let dirty = Paging.state p ~lpage = Paging.Dirty in
      if dirty then Paging.sync_writeback p ~lpage ~by_cpu;
      Vm_object.page_out obj ~pool:t.pool ~ops:t.ops ~offset;
      Paging.note_evicted p ~lpage ~dirty
  | None -> Vm_object.page_out obj ~pool:t.pool ~ops:t.ops ~offset);
  t.evictions <- t.evictions + 1

(* Clock hand: advance to the next claimable resident page and evict it.
   Object advances count as steps too — otherwise a registry of all
   zero-sized objects recurses forever with [budget] never spent — and the
   budget allows one full sweep: every slot plus one wrap past each
   object boundary. *)
let rec hunt t ~avoid ~by_cpu ~budget =
  if budget < 0 then false
  else begin
    let obj = t.objects.(t.cursor_obj) in
    if t.cursor_page >= Vm_object.size_pages obj then begin
      t.cursor_obj <- (t.cursor_obj + 1) mod Array.length t.objects;
      t.cursor_page <- 0;
      hunt t ~avoid ~by_cpu ~budget:(budget - 1)
    end
    else begin
      let offset = t.cursor_page in
      t.cursor_page <- t.cursor_page + 1;
      match Vm_object.slot obj ~offset with
      | Vm_object.Resident lpage when lpage <> avoid && claimable t ~lpage ->
          page_out_at t ~by_cpu obj ~offset ~lpage;
          true
      | Vm_object.Resident _ | Vm_object.Empty | Vm_object.Paged_out _ ->
          hunt t ~avoid ~by_cpu ~budget:(budget - 1)
    end
  end

let evict_one_clock ~avoid ~by_cpu t =
  t.total_slots > 0
  && hunt t ~avoid ~by_cpu ~budget:(t.total_slots + Array.length t.objects)

(* LRU approximation: evict the claimable resident page with the oldest
   fault-time use tick (Babaoglu-Joy style — the ACE has no reference
   bits, so faults are the only use signal). Ties break toward the lowest
   (object, offset) for determinism; without a paging machine every tick
   reads 0 and this degrades to in-order selection. *)
let evict_one_lru ~avoid ~by_cpu t =
  let best = ref None in
  Array.iteri
    (fun oi obj ->
      List.iter
        (fun (offset, lpage) ->
          if lpage <> avoid && claimable t ~lpage then begin
            let use =
              match t.paging with Some p -> Paging.last_use p ~lpage | None -> 0
            in
            match !best with
            | Some (u, _, _, _) when u <= use -> ()
            | _ -> best := Some (use, oi, offset, lpage)
          end)
        (Vm_object.resident_pages obj))
    t.objects;
  match !best with
  | None -> false
  | Some (_, oi, offset, lpage) ->
      page_out_at t ~by_cpu t.objects.(oi) ~offset ~lpage;
      true

(* [avoid] is compared as an int, -1 for none (no logical page is
   negative): the hand visits every resident page, and an option compared
   there would allocate and call the polymorphic compare at each. *)
let evict_one ?avoid ?(by_cpu = 0) t =
  let avoid = Option.value avoid ~default:(-1) in
  match t.victim with
  | Clock -> evict_one_clock ~avoid ~by_cpu t
  | Lru_approx -> evict_one_lru ~avoid ~by_cpu t

let rec evict_until ?avoid ~by_cpu t ~target =
  if Lpage_pool.n_free t.pool >= target then true
  else if evict_one ?avoid ~by_cpu t then evict_until ?avoid ~by_cpu t ~target
  else false

(* When a sweep stalls because the only remaining victims are Writeback
   entries, land the in-flight writebacks (the burst cannot wait for the
   daemon tick) and sweep once more. *)
let evict_until_hard ?avoid ~by_cpu t ~target =
  if evict_until ?avoid ~by_cpu t ~target then true
  else
    match t.paging with
    | Some p when Paging.force_complete p > 0 -> evict_until ?avoid ~by_cpu t ~target
    | Some _ | None -> false

let ensure_free ?avoid ?(by_cpu = 0) t ~needed =
  if Lpage_pool.n_free t.pool >= needed then true
  else begin
    (* Burst cap: free what the caller needs plus a low-water cushion, but
       never sweep all the way to a high-water mark far above [needed] —
       that evicted whole working sets in one fault. [tick] resumes the
       climb to high water in daemon context. *)
    let target = min (needed + t.low_water) (max needed t.high_water) in
    let reached = evict_until_hard ?avoid ~by_cpu t ~target in
    reached || Lpage_pool.n_free t.pool >= needed
  end

let tick ?(by_cpu = 0) t =
  if Lpage_pool.n_free t.pool >= t.low_water then 0
  else begin
    let before = t.evictions in
    ignore (evict_until_hard ~by_cpu t ~target:t.high_water);
    t.evictions - before
  end

let daemon_tick t ~now ~by_cpu =
  (match t.paging with
  | Some p ->
      ignore (Paging.complete_due p ~now);
      (* Pre-clean while free pages are merely getting low (below high
         water), so by the time eviction is forced the victims are Clean
         and drop for free. Two per tick keeps the disk-write charges
         spread over daemon time instead of bursting. *)
      if Lpage_pool.n_free t.pool < t.high_water then
        ignore (Paging.start_writebacks p ~now ~by_cpu ~max:2)
  | None -> ());
  tick ~by_cpu t

let evictions t = t.evictions
