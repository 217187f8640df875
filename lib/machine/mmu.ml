type phys = Frame of Frame_table.local_frame | Global_frame of int

type entry = {
  pmap : int;
  cpu : int;
  vpage : int;
  lpage : int;
  mutable prot : Prot.t;
  mutable phys : phys;
}

(* One logical page's mappings, in the fold order of a [Hashtbl.create 8]
   keyed by (pmap, cpu, vpage): the order [entries_of_lpage] lists in, so
   the order of protocol shootdowns depends on it. An emptied bucket is
   reset, never dropped, which returns it to the width a new table has. *)
type bucket = {
  maps : entry Hash_order.t;
  mutable at : int;  (** index in [mapped] while [maps] is non-empty, else -1 *)
}

(* A mapping's key, filled in place to hash it. A block of three ints
   hashes the same whether or not its fields are mutable. *)
type scratch_key = { mutable k_pmap : int; mutable k_cpu : int; mutable k_vpage : int }

type t = {
  n_cpus : int;
  mutable forward : entry option array array array;  (** pmap -> cpu -> vpage -> mapping *)
  mutable n_mappings : int;
  mutable reverse : bucket option array;  (** lpage -> its mappings *)
  mutable mapped : int array;  (** the lpages with a non-empty bucket, densely *)
  mutable n_mapped : int;
  tlbs : entry Tlb.t array;  (** per-CPU software translation caches *)
  obs : Numa_obs.Hub.t;
  mutable pt : Pt.t option;  (** materialised page tables, when attached *)
  key : scratch_key;
}

let create ?obs (config : Config.t) =
  {
    n_cpus = config.n_cpus;
    forward = [||];
    n_mappings = 0;
    reverse = [||];
    mapped = [||];
    n_mapped = 0;
    tlbs = Array.init config.n_cpus (fun _ -> Tlb.create ());
    obs = (match obs with Some h -> h | None -> Numa_obs.Hub.create ());
    pt = None;
    key = { k_pmap = 0; k_cpu = 0; k_vpage = 0 };
  }

let attach_pt t pt = t.pt <- Some pt
let pt t = t.pt

let hash_key t e =
  t.key.k_pmap <- e.pmap;
  t.key.k_cpu <- e.cpu;
  t.key.k_vpage <- e.vpage;
  Hashtbl.hash t.key

let same_key a b = a.pmap = b.pmap && a.cpu = b.cpu && a.vpage = b.vpage

let bucket_of t lpage =
  if lpage < 0 || lpage >= Array.length t.reverse then None else t.reverse.(lpage)

let link_reverse t e =
  let b =
    match bucket_of t e.lpage with
    | Some b -> b
    | None ->
        let b = { maps = Hash_order.create (); at = -1 } in
        t.reverse <- Rows.fit t.reverse e.lpage None;
        t.reverse.(e.lpage) <- Some b;
        b
  in
  if b.at < 0 then begin
    if t.n_mapped = Array.length t.mapped then t.mapped <- Rows.fit t.mapped t.n_mapped 0;
    t.mapped.(t.n_mapped) <- e.lpage;
    b.at <- t.n_mapped;
    t.n_mapped <- t.n_mapped + 1
  end;
  Hash_order.add b.maps ~hash:(hash_key t e) e

(* An emptied bucket leaves [mapped] by a swap with its last lpage. *)
let unlink_reverse t e =
  match bucket_of t e.lpage with
  | None -> ()
  | Some b ->
      Hash_order.remove b.maps ~same:same_key e;
      if Hash_order.length b.maps = 0 && b.at >= 0 then begin
        let last = t.mapped.(t.n_mapped - 1) in
        t.mapped.(b.at) <- last;
        (Option.get t.reverse.(last)).at <- b.at;
        b.at <- -1;
        t.n_mapped <- t.n_mapped - 1;
        Hash_order.reset b.maps
      end

let lookup t ~pmap ~cpu ~vpage =
  if pmap < 0 || pmap >= Array.length t.forward then None
  else Rows.get t.forward.(pmap) cpu vpage

(* Every mapping drop funnels through here, so this is the one precise
   shootdown point for the software TLBs: the protocol actions (invalidate,
   ownership move, pin, pageout) all reach mappings via the reverse maps
   and remove them entry by entry. An entry no longer in its forward slot
   was already removed, and the slot may now hold a newer mapping, so
   removing it again does nothing. *)
let remove_entry t e =
  match lookup t ~pmap:e.pmap ~cpu:e.cpu ~vpage:e.vpage with
  | Some cur when cur == e ->
      t.forward.(e.pmap).(e.cpu).(e.vpage) <- None;
      t.n_mappings <- t.n_mappings - 1;
      unlink_reverse t e;
      (match t.pt with
      | Some pt -> Pt.remove pt ~pmap:e.pmap ~cpu:e.cpu ~vpage:e.vpage ~lpage:e.lpage
      | None -> ());
      if
        Tlb.invalidate t.tlbs.(e.cpu) ~pmap:e.pmap ~vpage:e.vpage
        && Numa_obs.Hub.enabled t.obs
      then
        Numa_obs.Hub.emit t.obs
          (Numa_obs.Event.Tlb_shootdown { cpu = e.cpu; vpage = e.vpage; lpage = e.lpage })
  | Some _ | None -> ()

(* The cpu rows of [pmap], made on its first mapping. *)
let pmap_rows t pmap =
  if pmap >= Array.length t.forward then t.forward <- Rows.fit t.forward pmap [||];
  if Array.length t.forward.(pmap) = 0 then t.forward.(pmap) <- Array.make t.n_cpus [||];
  t.forward.(pmap)

let enter t ~pmap ~cpu ~vpage ~lpage ~prot ~phys =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Mmu.enter: bad cpu";
  if pmap < 0 || vpage < 0 || lpage < 0 then invalid_arg "Mmu.enter: negative index";
  (match lookup t ~pmap ~cpu ~vpage with
  | Some old -> remove_entry t old
  | None -> ());
  let e = { pmap; cpu; vpage; lpage; prot; phys } in
  Rows.set (pmap_rows t pmap) cpu vpage (Some e);
  t.n_mappings <- t.n_mappings + 1;
  link_reverse t e;
  match (t.pt, phys) with
  | Some pt, Frame f ->
      Pt.enter_ids pt ~pmap ~cpu ~vpage ~lpage ~frame_node:f.node ~frame_id:f.id ~prot
  | Some pt, Global_frame _ ->
      Pt.enter_ids pt ~pmap ~cpu ~vpage ~lpage ~frame_node:(-1) ~frame_id:0 ~prot
  | None, (Frame _ | Global_frame _) -> ()

(* The fast path: consult the CPU's software TLB first, fill it from the
   forward table on a miss. Entries are shared records, so protection
   clamps and physical retargets done in place are visible on later hits;
   only [remove_entry] needs to shoot entries down. *)
let translate t ~pmap ~cpu ~vpage =
  let tlb = t.tlbs.(cpu) in
  match Tlb.lookup tlb ~pmap ~vpage with
  | Some _ as hit -> hit
  | None ->
      let found = lookup t ~pmap ~cpu ~vpage in
      (* A miss is where the hardware would walk: charge the multi-level
         table walk when tables are materialised. A walk that finds no
         PTE (the fault path) still reads the levels that exist. *)
      (match t.pt with
      | Some pt ->
          let lpage = match found with Some e -> e.lpage | None -> -1 in
          Pt.walk pt ~pmap ~cpu ~vpage ~lpage
      | None -> ());
      (match found with Some e -> Tlb.insert tlb ~pmap ~vpage e | None -> ());
      found

let sum_over_tlbs t f = Array.fold_left (fun acc tlb -> acc + f tlb) 0 t.tlbs

let tlb_hits t = sum_over_tlbs t Tlb.hits
let tlb_misses t = sum_over_tlbs t Tlb.misses
let tlb_shootdowns t = sum_over_tlbs t Tlb.shootdowns

let tlb_stats t ~cpu =
  let tlb = t.tlbs.(cpu) in
  (Tlb.hits tlb, Tlb.misses tlb, Tlb.shootdowns tlb)

let set_prot t e prot =
  e.prot <- prot;
  match t.pt with
  | Some pt ->
      Pt.update_prot pt ~pmap:e.pmap ~cpu:e.cpu ~vpage:e.vpage ~lpage:e.lpage ~prot
  | None -> ()

let remove t ~pmap ~cpu ~vpage =
  match lookup t ~pmap ~cpu ~vpage with
  | None -> ()
  | Some e -> remove_entry t e

let entries_of_lpage t ~lpage =
  match bucket_of t lpage with
  | None -> []
  | Some b -> Hash_order.to_list b.maps

let n_entries_of_lpage t ~lpage =
  match bucket_of t lpage with
  | None -> 0
  | Some b -> Hash_order.length b.maps

let entry_of_lpage t ~lpage i =
  match bucket_of t lpage with
  | None -> invalid_arg "Mmu.entry_of_lpage: the page has no mapping"
  | Some b -> Hash_order.get b.maps i

let iter_mapped_lpages t f =
  for i = 0 to t.n_mapped - 1 do
    f t.mapped.(i)
  done

let entries_of_pmap t ~pmap =
  let add slot acc = match slot with Some e -> e :: acc | None -> acc in
  if pmap < 0 || pmap >= Array.length t.forward then []
  else Array.fold_right (fun row acc -> Array.fold_right add row acc) t.forward.(pmap) []

let iter_range t ~pmap ~vpage ~n f =
  for v = vpage to vpage + n - 1 do
    for cpu = 0 to t.n_cpus - 1 do
      match lookup t ~pmap ~cpu ~vpage:v with
      | Some e -> f e
      | None -> ()
    done
  done

let remove_range t ~pmap ~vpage ~n =
  let doomed = ref [] in
  iter_range t ~pmap ~vpage ~n (fun e -> doomed := e :: !doomed);
  List.iter (remove_entry t) !doomed

let n_mappings t = t.n_mappings

let phys_location ~cpu = function
  | Global_frame _ -> Location.In_global
  | Frame f -> if f.Frame_table.node = cpu then Location.Local_here else Location.Remote_local
