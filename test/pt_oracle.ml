(* The hashtable page tables that [Numa_machine.Pt]'s array rows replaced,
   kept verbatim below this header as the reference the page-table
   property in [test_pt.ml] holds [Pt] to: driven by one random op
   sequence, both must agree on stats, charges, events, PTE listings and
   the table-frame census after every op. Its only differences from
   [Pt] are the order it visits table pages in (hash order, where [Pt]
   goes root first) and the order its listings come out in. *)

open Numa_machine

module Hub = Numa_obs.Hub
module Event = Numa_obs.Event
module Profile = Numa_obs.Profile

type mode = Off | Shared | Replicated of int option

let mode_to_string = function
  | Off -> "none"
  | Shared -> "shared"
  | Replicated None -> "replicated"
  | Replicated (Some n) -> Printf.sprintf "replicated:%d" n

let mode_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Ok Off
  | [ "shared" ] -> Ok Shared
  | [ "replicated" ] -> Ok (Replicated None)
  | [ "replicated"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Replicated (Some n))
      | Some _ | None ->
          Error (Printf.sprintf "pt-mode replicated:%s: cap must be a positive integer" n))
  | _ ->
      Error
        (Printf.sprintf "unknown pt-mode %S (expected none, shared, replicated or \
                         replicated:N)" s)

type pte = {
  pte_lpage : int;
  pte_frame : Frame_table.local_frame option;
  pte_prot : Prot.t;
}

(* One radix-table page. [home] is where its backing memory physically
   sits: a frame taken from a node's pool, or the shared level when the
   pool refused (the pseudo-page [prefix] picks the stripe home). *)
type home = Local of Frame_table.local_frame | Global of int

type table = {
  t_node : int;  (** master: first-touch node; replica: its node *)
  pages : (int * int, home) Hashtbl.t;  (** (level, prefix) -> page home *)
  ptes : (int * int, pte) Hashtbl.t;  (** (cpu, vpage) -> leaf entry *)
}

type space = {
  sp_pmap : int;
  master : table;
  replicas : (int, table) Hashtbl.t;  (** node -> full table copy *)
}

type counters = {
  mutable c_walks : int;
  mutable c_walk_levels : int;
  mutable c_walk_ns : float;
  mutable c_pte_updates : int;
  mutable c_pte_shootdowns : int;
  mutable c_shootdown_ns : float;
  mutable c_replicas_built : int;
  mutable c_replicas_dropped : int;
  mutable c_global_pt_pages : int;
}

type t = {
  mode : mode;
  levels : int;
  bits : int;
  config : Config.t;
  topo : Topo.t;
  frames : Frame_table.t;
  sink : Cost_sink.t;
  obs : Hub.t;
  spaces : (int, space) Hashtbl.t;  (** pmap -> its tables *)
  c : counters;
}

let create ?obs ~config ~frames ~sink ~mode () =
  {
    mode;
    levels = 3;
    bits = 8;
    config;
    topo = Config.topology config;
    frames;
    sink;
    obs = (match obs with Some h -> h | None -> Hub.create ());
    spaces = Hashtbl.create 8;
    c =
      {
        c_walks = 0;
        c_walk_levels = 0;
        c_walk_ns = 0.;
        c_pte_updates = 0;
        c_pte_shootdowns = 0;
        c_shootdown_ns = 0.;
        c_replicas_built = 0;
        c_replicas_dropped = 0;
        c_global_pt_pages = 0;
      };
  }

let mode t = t.mode
let levels t = t.levels

(* Path prefix of [vpage] at radix [level]: the root (level 0) has one
   page, each deeper level refines by [bits] index bits. Vpages small
   enough share the level-1 directory page, as real address spaces do. *)
let prefix_at t ~level vpage = vpage lsr (t.bits * (t.levels - level))

let home_node t = function
  | Local f -> f.Frame_table.node
  | Global prefix -> Topo.global_home t.topo ~lpage:prefix

let home_place t = function
  | Local f -> Topo.Node f.Frame_table.node
  | Global prefix -> Topo.Shared (prefix mod t.config.Config.global_pages)

(* Allocate the backing for one table page, preferring [node]'s pool and
   falling back to the shared level when it is full, squeezed or offline
   (the table still exists — it just lives in slow memory). *)
let alloc_page t ~node ~prefix =
  match Frame_table.alloc_pt t.frames ~node with
  | Some f -> Local f
  | None ->
      t.c.c_global_pt_pages <- t.c.c_global_pt_pages + 1;
      Global prefix

let free_page t = function
  | Local f -> Frame_table.free_pt t.frames f
  | Global _ -> ()

let ensure_page t tbl ~alloc_node ~level ~prefix =
  match Hashtbl.find_opt tbl.pages (level, prefix) with
  | Some home -> home
  | None ->
      let home = alloc_page t ~node:alloc_node ~prefix in
      Hashtbl.replace tbl.pages (level, prefix) home;
      home

let ensure_path t tbl ~alloc_node ~vpage =
  for level = 0 to t.levels - 1 do
    ignore (ensure_page t tbl ~alloc_node ~level ~prefix:(prefix_at t ~level vpage))
  done

let new_table t ~node =
  let tbl = { t_node = node; pages = Hashtbl.create 16; ptes = Hashtbl.create 64 } in
  ignore (ensure_page t tbl ~alloc_node:node ~level:0 ~prefix:0);
  tbl

let online t ~node = Frame_table.node_online t.frames ~node

(* Materialise a full copy of the master on [node]: every table page is
   copied (a real page copy, charged to [by_cpu] like any other), every
   PTE mirrored. *)
let build_replica t space ~node ~by_cpu =
  let r = { t_node = node; pages = Hashtbl.create 16; ptes = Hashtbl.create 64 } in
  let copied = ref 0 in
  Hashtbl.iter
    (fun (level, prefix) src_home ->
      let dst_home = alloc_page t ~node ~prefix in
      Hashtbl.replace r.pages (level, prefix) dst_home;
      incr copied;
      Cost_sink.charge t.sink ~cpu:by_cpu ~cat:Profile.Page_copy
        (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:by_cpu
           ~src:(home_place t src_home) ~dst:(home_place t dst_home)))
    space.master.pages;
  Hashtbl.iter (fun k pte -> Hashtbl.replace r.ptes k pte) space.master.ptes;
  Hashtbl.replace space.replicas node r;
  t.c.c_replicas_built <- t.c.c_replicas_built + 1;
  if Hub.enabled t.obs then
    Hub.emit t.obs
      (Event.Pt_replica_create { pmap = space.sp_pmap; node; frames = !copied });
  r

let ensure_space t ~pmap ~cpu =
  match Hashtbl.find_opt t.spaces pmap with
  | Some sp -> sp
  | None ->
      let sp =
        (* Unseeded even under OCAMLRUNPARAM=R: tests compare the
           replicas' order. *)
        {
          sp_pmap = pmap;
          master = new_table t ~node:cpu;
          replicas = Hashtbl.create ~random:false 4;
        }
      in
      Hashtbl.replace t.spaces pmap sp;
      (match t.mode with
      | Replicated None ->
          for node = 0 to Topo.cpu_nodes t.topo - 1 do
            if node <> sp.master.t_node && online t ~node then
              ignore (build_replica t sp ~node ~by_cpu:cpu)
          done
      | Off | Shared | Replicated (Some _) -> ());
      sp

(* --- PTE propagation ----------------------------------------------------- *)

let leaf_home t tbl ~vpage =
  match Hashtbl.find_opt tbl.pages (t.levels - 1, prefix_at t ~level:(t.levels - 1) vpage)
  with
  | Some home -> home_node t home
  | None -> tbl.t_node

(* A silent propagation: the new PTE value is stored into each replica's
   leaf page (remote store at matrix latency). *)
let propagate_update t space ~cpu ~vpage ~lpage pte =
  Hashtbl.iter
    (fun _node r ->
      ensure_path t r ~alloc_node:r.t_node ~vpage;
      Hashtbl.replace r.ptes (cpu, vpage) pte;
      let ns =
        Cost.node_reference_ns ~topo:t.topo ~access:Access.Store ~cpu
          ~node:(leaf_home t r ~vpage)
      in
      t.c.c_pte_updates <- t.c.c_pte_updates + 1;
      t.c.c_shootdown_ns <- t.c.c_shootdown_ns +. ns;
      Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_shootdown ~lpage ns)
    space.replicas

(* An invalidation-style shootdown: the stale replica PTE is overwritten
   (or cleared) and the remote node pays the IPI-style interrupt, so the
   cost is the remote store plus the configured shootdown service time. *)
let propagate_shootdown t space ~cpu ~vpage ~lpage pte_opt =
  Hashtbl.iter
    (fun node r ->
      if Hashtbl.mem r.ptes (cpu, vpage) then begin
        (match pte_opt with
        | Some pte -> Hashtbl.replace r.ptes (cpu, vpage) pte
        | None -> Hashtbl.remove r.ptes (cpu, vpage));
        let ns =
          Cost.node_reference_ns ~topo:t.topo ~access:Access.Store ~cpu
            ~node:(leaf_home t r ~vpage)
          +. Cost.tlb_shootdown_ns t.config
        in
        t.c.c_pte_shootdowns <- t.c.c_pte_shootdowns + 1;
        t.c.c_shootdown_ns <- t.c.c_shootdown_ns +. ns;
        Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_shootdown ~lpage ns;
        if Hub.enabled t.obs then
          Hub.emit t.obs (Event.Pt_shootdown { cpu; vpage; lpage; node })
      end)
    space.replicas

let enter t ~pmap ~cpu ~vpage ~lpage ~frame ~prot =
  let sp = ensure_space t ~pmap ~cpu in
  ensure_path t sp.master ~alloc_node:cpu ~vpage;
  let pte = { pte_lpage = lpage; pte_frame = frame; pte_prot = prot } in
  Hashtbl.replace sp.master.ptes (cpu, vpage) pte;
  propagate_update t sp ~cpu ~vpage ~lpage pte

let remove t ~pmap ~cpu ~vpage ~lpage =
  match Hashtbl.find_opt t.spaces pmap with
  | None -> ()
  | Some sp ->
      Hashtbl.remove sp.master.ptes (cpu, vpage);
      propagate_shootdown t sp ~cpu ~vpage ~lpage None

let update_pte t ~pmap ~cpu ~vpage ~lpage f =
  match Hashtbl.find_opt t.spaces pmap with
  | None -> ()
  | Some sp -> (
      match Hashtbl.find_opt sp.master.ptes (cpu, vpage) with
      | None -> ()
      | Some old ->
          let pte = f old in
          Hashtbl.replace sp.master.ptes (cpu, vpage) pte;
          propagate_shootdown t sp ~cpu ~vpage ~lpage (Some pte))

let update_prot t ~pmap ~cpu ~vpage ~lpage ~prot =
  update_pte t ~pmap ~cpu ~vpage ~lpage (fun old -> { old with pte_prot = prot })

(* --- the walk ------------------------------------------------------------ *)

let walk t ~pmap ~cpu ~vpage ~lpage =
  match t.mode with
  | Off -> ()
  | Shared | Replicated _ ->
      let sp = ensure_space t ~pmap ~cpu in
      let tbl =
        match t.mode with
        | Off | Shared -> sp.master
        | Replicated cap -> (
            if cpu = sp.master.t_node then sp.master
            else
              match Hashtbl.find_opt sp.replicas cpu with
              | Some r -> r
              | None -> (
                  (* On demand: the first local walk pays for mitosis, up
                     to the cap; past it, keep walking the master. *)
                  match cap with
                  | Some n when Hashtbl.length sp.replicas < n && online t ~node:cpu ->
                      build_replica t sp ~node:cpu ~by_cpu:cpu
                  | Some _ -> sp.master
                  | None -> sp.master))
      in
      (* Read down the radix path: one fetch per existing level, each at
         the matrix latency to wherever that table page lives. The walk
         stops at the first absent page (a fault-path walk reads the
         levels that exist and finds no entry). *)
      let read = ref 0 in
      let ns = ref 0. in
      (try
         for level = 0 to t.levels - 1 do
           match Hashtbl.find_opt tbl.pages (level, prefix_at t ~level vpage) with
           | Some home ->
               incr read;
               ns :=
                 !ns
                 +. Cost.node_reference_ns ~topo:t.topo ~access:Access.Load ~cpu
                      ~node:(home_node t home)
           | None -> raise Exit
         done
       with Exit -> ());
      t.c.c_walks <- t.c.c_walks + 1;
      t.c.c_walk_levels <- t.c.c_walk_levels + !read;
      t.c.c_walk_ns <- t.c.c_walk_ns +. !ns;
      Cost_sink.charge t.sink ~cpu ~cat:Profile.Pt_walk ~lpage !ns;
      if Hub.enabled t.obs then
        Hub.emit t.obs (Event.Pt_walk { cpu; vpage; lpage; levels = !read; ns = !ns })

(* --- degradation and the daemon ------------------------------------------ *)

let sorted_pmaps t =
  List.sort Int.compare (Hashtbl.fold (fun pmap _ acc -> pmap :: acc) t.spaces [])

let drop_replica t space ~node =
  match Hashtbl.find_opt space.replicas node with
  | None -> ()
  | Some r ->
      Hashtbl.iter (fun _ home -> free_page t home) r.pages;
      Hashtbl.remove space.replicas node;
      t.c.c_replicas_dropped <- t.c.c_replicas_dropped + 1;
      if Hub.enabled t.obs then
        Hub.emit t.obs (Event.Pt_replica_drop { pmap = space.sp_pmap; node })

let node_offline t ~node =
  List.iter
    (fun pmap ->
      let sp = Hashtbl.find t.spaces pmap in
      drop_replica t sp ~node;
      (* Master pages living on the dying node move to the nearest online
         pool (or the shared level): the table must outlive the memory. *)
      let doomed =
        Hashtbl.fold
          (fun key home acc ->
            match home with
            | Local f when f.Frame_table.node = node -> (key, home) :: acc
            | Local _ | Global _ -> acc)
          sp.master.pages []
      in
      let target =
        Topo.nearest_cpu t.topo ~from:node ~ok:(fun n ->
            n <> node && online t ~node:n
            && Frame_table.local_in_use t.frames ~node:n
               < Frame_table.local_capacity t.frames ~node:n)
      in
      List.iter
        (fun ((level, prefix), home) ->
          free_page t home;
          let fresh =
            match target with
            | Some n -> alloc_page t ~node:n ~prefix
            | None ->
                t.c.c_global_pt_pages <- t.c.c_global_pt_pages + 1;
                Global prefix
          in
          Hashtbl.replace sp.master.pages (level, prefix) fresh;
          Cost_sink.charge t.sink ~cpu:node ~cat:Profile.Page_copy
            (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:node
               ~src:(home_place t home) ~dst:(home_place t fresh)))
        doomed)
    (sorted_pmaps t)

let daemon_sweep t ~by_cpu =
  match t.mode with
  | Off | Shared | Replicated (Some _) -> 0
  | Replicated None ->
      let built = ref 0 in
      List.iter
        (fun pmap ->
          let sp = Hashtbl.find t.spaces pmap in
          for node = 0 to Topo.cpu_nodes t.topo - 1 do
            if
              node <> sp.master.t_node && online t ~node
              && not (Hashtbl.mem sp.replicas node)
            then begin
              ignore (build_replica t sp ~node ~by_cpu);
              incr built
            end
          done)
        (sorted_pmaps t);
      !built

(* --- fault injection ----------------------------------------------------- *)

let corrupt_replica t ~lpage =
  let hit = ref None in
  List.iter
    (fun pmap ->
      if !hit = None then
        let sp = Hashtbl.find t.spaces pmap in
        let nodes =
          List.sort Int.compare (Hashtbl.fold (fun n _ acc -> n :: acc) sp.replicas [])
        in
        List.iter
          (fun node ->
            if !hit = None then
              let r = Hashtbl.find sp.replicas node in
              let victim =
                Hashtbl.fold
                  (fun key pte best ->
                    if pte.pte_lpage <> lpage then best
                    else
                      match best with
                      | Some (k, _) when compare k key <= 0 -> best
                      | _ -> Some (key, pte))
                  r.ptes None
              in
              match victim with
              | None -> ()
              | Some (key, pte) ->
                  (* Retarget the replica PTE at the wrong logical page —
                     exactly the stale translation a missed shootdown
                     would leave behind. *)
                  Hashtbl.replace r.ptes key { pte with pte_lpage = pte.pte_lpage + 1 };
                  hit := Some (pmap, node))
          nodes)
    (sorted_pmaps t);
  !hit

(* --- introspection ------------------------------------------------------- *)

let pmaps t = sorted_pmaps t

let master_pte t ~pmap ~cpu ~vpage =
  match Hashtbl.find_opt t.spaces pmap with
  | None -> None
  | Some sp -> Hashtbl.find_opt sp.master.ptes (cpu, vpage)

let replica_nodes t ~pmap =
  match Hashtbl.find_opt t.spaces pmap with
  | None -> []
  | Some sp ->
      List.sort Int.compare (Hashtbl.fold (fun n _ acc -> n :: acc) sp.replicas [])

let table_ptes tbl = Hashtbl.fold (fun key pte acc -> (key, pte) :: acc) tbl.ptes []

let master_ptes t ~pmap =
  match Hashtbl.find_opt t.spaces pmap with
  | None -> []
  | Some sp -> table_ptes sp.master

let replica_ptes t ~pmap ~node =
  match Hashtbl.find_opt t.spaces pmap with
  | None -> []
  | Some sp -> (
      match Hashtbl.find_opt sp.replicas node with
      | None -> []
      | Some r -> table_ptes r)

let table_frames t =
  let acc = ref [] in
  let add_table tbl =
    Hashtbl.iter
      (fun _ home ->
        match home with
        | Local f -> acc := (f.Frame_table.node, f) :: !acc
        | Global _ -> ())
      tbl.pages
  in
  Hashtbl.iter
    (fun _ sp ->
      add_table sp.master;
      Hashtbl.iter (fun _ r -> add_table r) sp.replicas)
    t.spaces;
  !acc

type stats = {
  walks : int;
  walk_levels : int;
  walk_ns : float;
  pte_updates : int;
  pte_shootdowns : int;
  shootdown_ns : float;
  replicas_built : int;
  replicas_dropped : int;
  pt_frames : int array;
  global_pt_pages : int;
}

let stats t =
  {
    walks = t.c.c_walks;
    walk_levels = t.c.c_walk_levels;
    walk_ns = t.c.c_walk_ns;
    pte_updates = t.c.c_pte_updates;
    pte_shootdowns = t.c.c_pte_shootdowns;
    shootdown_ns = t.c.c_shootdown_ns;
    replicas_built = t.c.c_replicas_built;
    replicas_dropped = t.c.c_replicas_dropped;
    pt_frames =
      Array.init (Topo.cpu_nodes t.topo) (fun node ->
          Frame_table.pt_in_use t.frames ~node);
    global_pt_pages = t.c.c_global_pt_pages;
  }
