(* The hashtable MMU that [Numa_machine.Mmu]'s array rows replaced, kept
   verbatim below this header as the reference the MMU property in
   [test_machine.ml] holds [Mmu] to: driven by one random op sequence,
   both must agree on lookups, reverse-map listings, counters, events
   and charges after every op. Its only differences from [Mmu] are the
   order [entries_of_pmap] and [iter_mapped_lpages] list in (hash order,
   where [Mmu] goes by cpu then vpage, and by first mapping) and that it
   accepts negative indices in [enter]. *)

open Numa_machine

type phys = Frame of Frame_table.local_frame | Global_frame of int

type entry = {
  pmap : int;
  cpu : int;
  vpage : int;
  lpage : int;
  mutable prot : Prot.t;
  mutable phys : phys;
}

type key = { k_pmap : int; k_cpu : int; k_vpage : int }

type t = {
  n_cpus : int;
  forward : (key, entry) Hashtbl.t;
  reverse : (int, (key, entry) Hashtbl.t) Hashtbl.t;  (** lpage -> its mappings *)
  tlbs : entry Tlb.t array;  (** per-CPU software translation caches *)
  obs : Numa_obs.Hub.t;
  mutable pt : Pt.t option;  (** materialised page tables, when attached *)
}

let create ?obs (config : Config.t) =
  {
    n_cpus = config.n_cpus;
    forward = Hashtbl.create 1024;
    reverse = Hashtbl.create 256;
    tlbs = Array.init config.n_cpus (fun _ -> Tlb.create ());
    obs = (match obs with Some h -> h | None -> Numa_obs.Hub.create ());
    pt = None;
  }

let attach_pt t pt = t.pt <- Some pt
let pt t = t.pt


let key_of_entry e = { k_pmap = e.pmap; k_cpu = e.cpu; k_vpage = e.vpage }

let reverse_bucket t lpage =
  match Hashtbl.find_opt t.reverse lpage with
  | Some b -> b
  | None ->
      (* Unseeded even under OCAMLRUNPARAM=R: tests compare its order. *)
      let b = Hashtbl.create ~random:false 8 in
      Hashtbl.replace t.reverse lpage b;
      b

let unlink_reverse t e =
  match Hashtbl.find_opt t.reverse e.lpage with
  | None -> ()
  | Some b ->
      Hashtbl.remove b (key_of_entry e);
      if Hashtbl.length b = 0 then Hashtbl.remove t.reverse e.lpage

(* Every mapping drop funnels through here, so this is the one precise
   shootdown point for the software TLBs: the protocol actions (invalidate,
   ownership move, pin, pageout) all reach mappings via the reverse maps
   and remove them entry by entry. *)
let remove_entry t e =
  Hashtbl.remove t.forward (key_of_entry e);
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

let enter t ~pmap ~cpu ~vpage ~lpage ~prot ~phys =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Mmu.enter: bad cpu";
  let key = { k_pmap = pmap; k_cpu = cpu; k_vpage = vpage } in
  (match Hashtbl.find_opt t.forward key with
  | Some old -> remove_entry t old
  | None -> ());
  let e = { pmap; cpu; vpage; lpage; prot; phys } in
  Hashtbl.replace t.forward key e;
  Hashtbl.replace (reverse_bucket t lpage) key e;
  match t.pt with
  | Some pt -> (
      match phys with
      | Frame f ->
          Pt.enter_ids pt ~pmap ~cpu ~vpage ~lpage ~frame_node:f.node ~frame_id:f.id ~prot
      | Global_frame _ ->
          Pt.enter_ids pt ~pmap ~cpu ~vpage ~lpage ~frame_node:(-1) ~frame_id:0 ~prot)
  | None -> ()

let lookup t ~pmap ~cpu ~vpage =
  Hashtbl.find_opt t.forward { k_pmap = pmap; k_cpu = cpu; k_vpage = vpage }

(* The fast path: consult the CPU's software TLB first, fill it from the
   forward table on a miss. Entries are shared records, so protection
   clamps and physical retargets done in place are visible on later hits;
   only [remove_entry] needs to shoot entries down. *)
let translate t ~pmap ~cpu ~vpage =
  let tlb = t.tlbs.(cpu) in
  match Tlb.lookup tlb ~pmap ~vpage with
  | Some _ as hit -> hit
  | None ->
      let found =
        Hashtbl.find_opt t.forward { k_pmap = pmap; k_cpu = cpu; k_vpage = vpage }
      in
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
  match Hashtbl.find_opt t.reverse lpage with
  | None -> []
  | Some b -> Hashtbl.fold (fun _ e acc -> e :: acc) b []

let iter_mapped_lpages t f = Hashtbl.iter (fun lpage _ -> f lpage) t.reverse

let entries_of_pmap t ~pmap =
  Hashtbl.fold (fun _ e acc -> if e.pmap = pmap then e :: acc else acc) t.forward []

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

let n_mappings t = Hashtbl.length t.forward

let phys_location ~cpu = function
  | Global_frame _ -> Location.In_global
  | Frame f -> if f.Frame_table.node = cpu then Location.Local_here else Location.Remote_local
