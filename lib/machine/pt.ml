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

type pte = { pte_lpage : int; pte_frame : (int * int) option; pte_prot : Prot.t }

(* A PTE is one int, so its rows are [int array]s: a store is a plain
   write with no barrier, and a replica build copies ints. [empty] marks
   no entry; any other value packs, low bits first, the protection (2
   bits), the frame's node plus one (10 bits, 0 for the global frame),
   the frame's id (25 bits, 0 for the global frame) and the logical page
   (25 bits): 62 bits, so every PTE is a non-negative int. *)
let empty = -1
let prot_mask = 3
let node_shift = 2
let id_shift = 12
let lpage_shift = 37
let field_max bits = (1 lsl bits) - 1
let node_max = field_max 10 - 1
let id_max = field_max 25
let lpage_max = field_max 25

let check what v max =
  if v < 0 || v > max then invalid_arg ("Pt: " ^ what ^ " does not fit a PTE")

let prot_code = function Prot.No_access -> 0 | Prot.Read_only -> 1 | Prot.Read_write -> 2

(* A negative [node] is the global frame, whose [id] is not stored. *)
let encode ~lpage ~node ~id ~prot =
  check "lpage" lpage lpage_max;
  if node < 0 then (lpage lsl lpage_shift) lor prot_code prot
  else begin
    check "frame node" node node_max;
    check "frame id" id id_max;
    (lpage lsl lpage_shift) lor (id lsl id_shift) lor ((node + 1) lsl node_shift)
    lor prot_code prot
  end

let pte_lpage pte = pte lsr lpage_shift

let with_lpage pte lpage =
  check "lpage" lpage lpage_max;
  (pte land field_max lpage_shift) lor (lpage lsl lpage_shift)

let decode pte =
  {
    pte_lpage = pte_lpage pte;
    pte_frame =
      (match (pte lsr node_shift) land field_max 10 with
      | 0 -> None
      | node_plus_one -> Some (node_plus_one - 1, (pte lsr id_shift) land id_max));
    pte_prot =
      (match pte land prot_mask with
      | 0 -> Prot.No_access
      | 1 -> Prot.Read_only
      | _ -> Prot.Read_write);
  }

(* [Rows.get] and [Rows.set] for PTE rows, typed [int] so that a store
   compiles to a plain write. *)
let get_pte (rows : int array array) cpu vpage =
  if cpu < 0 || cpu >= Array.length rows then empty
  else
    let row = rows.(cpu) in
    if vpage < 0 || vpage >= Array.length row then empty else row.(vpage)

let set_pte (rows : int array array) cpu vpage (pte : int) =
  let row = rows.(cpu) in
  if vpage < Array.length row then row.(vpage) <- pte
  else begin
    let row = Rows.fit row vpage empty in
    rows.(cpu) <- row;
    row.(vpage) <- pte
  end

(* One radix-table page. [home] is where its backing memory physically
   sits: a frame taken from a node's pool, or the shared level when the
   pool refused (the pseudo-page [prefix] picks the stripe home). *)
type home = Local of Frame_table.local_frame | Global of int

(* Rows are indexed directly ({!Rows}), so a lookup neither hashes nor
   allocates a key. *)
type table = {
  t_node : int;  (** master: first-touch node; replica: its node *)
  pages : home option array array;  (** level -> prefix -> page home *)
  ptes : int array array;  (** cpu -> vpage -> leaf entry, packed *)
}

type space = {
  sp_pmap : int;
  master : table;
  replicas : table Hash_order.t;
      (** the full table copies, in the order of a node-keyed hash table;
          read downward, that order fixes the order of propagation charges
          and [Pt_shootdown] events *)
  by_node : table option array;  (** node -> its replica, as in [replicas] *)
}

type counters = {
  mutable c_walks : int;
  mutable c_walk_levels : int;
  mutable c_pte_updates : int;
  mutable c_pte_shootdowns : int;
  mutable c_replicas_built : int;
  mutable c_replicas_dropped : int;
  mutable c_global_pt_pages : int;
}

(* The float counters sit apart, in a record of floats only, whose fields
   are stored unboxed: an update, once per walk, allocates nothing. *)
type float_counters = { mutable c_walk_ns : float; mutable c_shootdown_ns : float }

type t = {
  mode : mode;
  levels : int;
  bits : int;
  config : Config.t;
  topo : Topo.t;
  frames : Frame_table.t;
  sink : Cost_sink.t;
  obs : Hub.t;
  mutable spaces : space option array;  (** pmap -> its tables *)
  c : counters;
  cf : float_counters;
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
    spaces = [||];
    c =
      {
        c_walks = 0;
        c_walk_levels = 0;
        c_pte_updates = 0;
        c_pte_shootdowns = 0;
        c_replicas_built = 0;
        c_replicas_dropped = 0;
        c_global_pt_pages = 0;
      };
    cf = { c_walk_ns = 0.; c_shootdown_ns = 0. };
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

(* Every page of [tbl], root first: by level, then by prefix. *)
let iter_pages f tbl =
  Array.iteri
    (fun level row ->
      Array.iteri
        (fun prefix home -> Option.iter (f ~level ~prefix) home)
        row)
    tbl.pages

let ensure_page t tbl ~alloc_node ~level ~prefix =
  match Rows.get tbl.pages level prefix with
  | Some _ -> ()
  | None -> Rows.set tbl.pages level prefix (Some (alloc_page t ~node:alloc_node ~prefix))

let ensure_path t tbl ~alloc_node ~vpage =
  for level = 0 to t.levels - 1 do
    ensure_page t tbl ~alloc_node ~level ~prefix:(prefix_at t ~level vpage)
  done

let empty_table t ~node =
  {
    t_node = node;
    pages = Array.make t.levels [||];
    ptes = Array.make t.config.Config.n_cpus [||];
  }

let new_table t ~node =
  let tbl = empty_table t ~node in
  ensure_page t tbl ~alloc_node:node ~level:0 ~prefix:0;
  tbl

let online t ~node = Frame_table.node_online t.frames ~node

(* Materialise a full copy of the master on [node]: every table page is
   copied (a real page copy, charged to [by_cpu] like any other), root
   first, and every PTE mirrored. *)
let build_replica t space ~node ~by_cpu =
  let r = { (empty_table t ~node) with ptes = Array.map Array.copy space.master.ptes } in
  let copied = ref 0 in
  iter_pages
    (fun ~level ~prefix src_home ->
      let dst_home = alloc_page t ~node ~prefix in
      Rows.set r.pages level prefix (Some dst_home);
      incr copied;
      Cost_sink.add t.sink ~cpu:by_cpu ~cat:Profile.Page_copy ~lpage:(-1)
        (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:by_cpu
           ~src:(home_place t src_home) ~dst:(home_place t dst_home)))
    space.master;
  Hash_order.add space.replicas ~hash:(Hashtbl.hash node) r;
  space.by_node.(node) <- Some r;
  t.c.c_replicas_built <- t.c.c_replicas_built + 1;
  if Hub.enabled t.obs then
    Hub.emit t.obs
      (Event.Pt_replica_create { pmap = space.sp_pmap; node; frames = !copied });
  r

(* A negative pmap has no tables, so every read finds it absent. *)
let space t ~pmap =
  if pmap >= 0 && pmap < Array.length t.spaces then t.spaces.(pmap) else None

let ensure_space t ~pmap ~cpu =
  match space t ~pmap with
  | Some sp -> sp
  | None ->
      if pmap < 0 then invalid_arg "Pt: negative pmap";
      let sp =
        {
          sp_pmap = pmap;
          master = new_table t ~node:cpu;
          replicas = Hash_order.create ();
          by_node = Array.make (Topo.cpu_nodes t.topo) None;
        }
      in
      t.spaces <- Rows.fit t.spaces pmap None;
      t.spaces.(pmap) <- Some sp;
      (match t.mode with
      | Replicated None ->
          for node = 0 to Topo.cpu_nodes t.topo - 1 do
            if node <> sp.master.t_node && online t ~node then
              ignore (build_replica t sp ~node ~by_cpu:cpu)
          done
      | Off | Shared | Replicated (Some _) -> ());
      sp

(* Every materialised space, in pmap order. *)
let iter_spaces f t = Array.iter (Option.iter f) t.spaces

(* --- PTE propagation ----------------------------------------------------- *)

let leaf_home t tbl ~vpage =
  match Rows.get tbl.pages (t.levels - 1) (prefix_at t ~level:(t.levels - 1) vpage) with
  | Some home -> home_node t home
  | None -> tbl.t_node

(* A silent propagation: the new PTE value is stored into each replica's
   leaf page (remote store at matrix latency). Propagation visits the
   replicas in [Hashtbl.iter]'s order, [replicas] read downward. *)
let propagate_update t space ~cpu ~vpage ~lpage pte =
  let rs = space.replicas in
  for i = Hash_order.length rs - 1 downto 0 do
    let r = Hash_order.get rs i in
    ensure_path t r ~alloc_node:r.t_node ~vpage;
    set_pte r.ptes cpu vpage pte;
    let ns =
      Cost.node_reference_ns ~topo:t.topo ~access:Access.Store ~cpu
        ~node:(leaf_home t r ~vpage)
    in
    t.c.c_pte_updates <- t.c.c_pte_updates + 1;
    t.cf.c_shootdown_ns <- t.cf.c_shootdown_ns +. ns;
    Cost_sink.add t.sink ~cpu ~cat:Profile.Pt_shootdown ~lpage ns
  done

(* An invalidation-style shootdown: the stale replica PTE is overwritten
   (or cleared) and the remote node pays the IPI-style interrupt, so the
   cost is the remote store plus the configured shootdown service time. *)
let propagate_shootdown t space ~cpu ~vpage ~lpage pte =
  let rs = space.replicas in
  for i = Hash_order.length rs - 1 downto 0 do
    let r = Hash_order.get rs i in
    if get_pte r.ptes cpu vpage <> empty then begin
      set_pte r.ptes cpu vpage pte;
      let ns =
        Cost.node_reference_ns ~topo:t.topo ~access:Access.Store ~cpu
          ~node:(leaf_home t r ~vpage)
        +. Cost.tlb_shootdown_ns t.config
      in
      t.c.c_pte_shootdowns <- t.c.c_pte_shootdowns + 1;
      t.cf.c_shootdown_ns <- t.cf.c_shootdown_ns +. ns;
      Cost_sink.add t.sink ~cpu ~cat:Profile.Pt_shootdown ~lpage ns;
      if Hub.enabled t.obs then
        Hub.emit t.obs (Event.Pt_shootdown { cpu; vpage; lpage; node = r.t_node })
    end
  done

let enter_ids t ~pmap ~cpu ~vpage ~lpage ~frame_node ~frame_id ~prot =
  let pte = encode ~lpage ~node:frame_node ~id:frame_id ~prot in
  let sp = ensure_space t ~pmap ~cpu in
  ensure_path t sp.master ~alloc_node:cpu ~vpage;
  set_pte sp.master.ptes cpu vpage pte;
  propagate_update t sp ~cpu ~vpage ~lpage pte

let enter t ~pmap ~cpu ~vpage ~lpage ~frame ~prot =
  match frame with
  | Some (f : Frame_table.local_frame) ->
      enter_ids t ~pmap ~cpu ~vpage ~lpage ~frame_node:f.node ~frame_id:f.id ~prot
  | None -> enter_ids t ~pmap ~cpu ~vpage ~lpage ~frame_node:(-1) ~frame_id:0 ~prot

let remove t ~pmap ~cpu ~vpage ~lpage =
  match space t ~pmap with
  | None -> ()
  | Some sp ->
      set_pte sp.master.ptes cpu vpage empty;
      propagate_shootdown t sp ~cpu ~vpage ~lpage empty

let update_prot t ~pmap ~cpu ~vpage ~lpage ~prot =
  match space t ~pmap with
  | None -> ()
  | Some sp ->
      let old = get_pte sp.master.ptes cpu vpage in
      if old <> empty then begin
        let pte = old land lnot prot_mask lor prot_code prot in
        set_pte sp.master.ptes cpu vpage pte;
        propagate_shootdown t sp ~cpu ~vpage ~lpage pte
      end

(* --- the walk ------------------------------------------------------------ *)

(* A negative pmap has no tables, so its walk reads nothing: no charge, no
   count and no event, and [Mmu.translate] finds it absent in every mode. *)
let walk t ~pmap ~cpu ~vpage ~lpage =
  match t.mode with
  | Off -> ()
  | Shared | Replicated _ when pmap < 0 -> ()
  | Shared | Replicated _ ->
      let sp = ensure_space t ~pmap ~cpu in
      let tbl =
        match t.mode with
        | Off | Shared -> sp.master
        | Replicated cap -> (
            if cpu = sp.master.t_node then sp.master
            else
              match sp.by_node.(cpu) with
              | Some r -> r
              | None -> (
                  (* On demand: the first local walk pays for mitosis, up
                     to the cap; past it, keep walking the master. *)
                  match cap with
                  | Some n when Hash_order.length sp.replicas < n && online t ~node:cpu ->
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
           match Rows.get tbl.pages level (prefix_at t ~level vpage) with
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
      t.cf.c_walk_ns <- t.cf.c_walk_ns +. !ns;
      Cost_sink.add t.sink ~cpu ~cat:Profile.Pt_walk ~lpage !ns;
      if Hub.enabled t.obs then
        Hub.emit t.obs (Event.Pt_walk { cpu; vpage; lpage; levels = !read; ns = !ns })

(* --- degradation and the daemon ------------------------------------------ *)

let drop_replica t space ~node =
  match space.by_node.(node) with
  | None -> ()
  | Some r ->
      iter_pages (fun ~level:_ ~prefix:_ home -> free_page t home) r;
      Hash_order.remove space.replicas ~same:( == ) r;
      space.by_node.(node) <- None;
      t.c.c_replicas_dropped <- t.c.c_replicas_dropped + 1;
      if Hub.enabled t.obs then
        Hub.emit t.obs (Event.Pt_replica_drop { pmap = space.sp_pmap; node })

let node_offline t ~node =
  iter_spaces
    (fun sp ->
      drop_replica t sp ~node;
      (* Master pages living on the dying node move to the nearest online
         pool (or the shared level), root first: the table must outlive
         the memory. *)
      let target =
        Topo.nearest_cpu t.topo ~from:node ~ok:(fun n ->
            n <> node && online t ~node:n
            && Frame_table.local_in_use t.frames ~node:n
               < Frame_table.local_capacity t.frames ~node:n)
      in
      iter_pages
        (fun ~level ~prefix home ->
          match home with
          | Local f when f.Frame_table.node = node ->
              free_page t home;
              let fresh =
                match target with
                | Some n -> alloc_page t ~node:n ~prefix
                | None ->
                    t.c.c_global_pt_pages <- t.c.c_global_pt_pages + 1;
                    Global prefix
              in
              Rows.set sp.master.pages level prefix (Some fresh);
              Cost_sink.add t.sink ~cpu:node ~cat:Profile.Page_copy ~lpage:(-1)
                (Cost.place_page_copy_ns t.config ~topo:t.topo ~cpu:node
                   ~src:(home_place t home) ~dst:(home_place t fresh))
          | Local _ | Global _ -> ())
        sp.master)
    t

let daemon_sweep t ~by_cpu =
  match t.mode with
  | Off | Shared | Replicated (Some _) -> 0
  | Replicated None ->
      let built = ref 0 in
      iter_spaces
        (fun sp ->
          for node = 0 to Topo.cpu_nodes t.topo - 1 do
            if
              node <> sp.master.t_node && online t ~node
              && Option.is_none sp.by_node.(node)
            then begin
              ignore (build_replica t sp ~node ~by_cpu);
              incr built
            end
          done)
        t;
      !built

(* --- fault injection ----------------------------------------------------- *)

let sorted_nodes sp =
  List.filter
    (fun node -> Option.is_some sp.by_node.(node))
    (List.init (Array.length sp.by_node) Fun.id)

let corrupt_replica t ~lpage =
  let hit = ref None in
  iter_spaces
    (fun sp ->
      List.iter
        (fun node ->
          Array.iter
            (fun (row : int array) ->
              Array.iteri
                (fun vpage pte ->
                  if pte <> empty && pte_lpage pte = lpage && !hit = None then begin
                    (* Retarget the replica PTE at the wrong logical page —
                       exactly the stale translation a missed shootdown
                       would leave behind. Only the lpage field changes. *)
                    row.(vpage) <- with_lpage pte (lpage + 1);
                    hit := Some (sp.sp_pmap, node)
                  end)
                row)
            (Option.get sp.by_node.(node)).ptes)
        (sorted_nodes sp))
    t;
  !hit

(* --- introspection ------------------------------------------------------- *)

let pmaps t =
  Array.fold_right
    (fun sp acc -> match sp with Some sp -> sp.sp_pmap :: acc | None -> acc)
    t.spaces []

let master_pte t ~pmap ~cpu ~vpage =
  match space t ~pmap with
  | None -> None
  | Some sp ->
      let pte = get_pte sp.master.ptes cpu vpage in
      if pte = empty then None else Some (decode pte)

let replica_nodes t ~pmap =
  match space t ~pmap with
  | None -> []
  | Some sp -> sorted_nodes sp

let table_ptes tbl =
  let acc = ref [] in
  Array.iteri
    (fun cpu row ->
      Array.iteri
        (fun vpage pte -> if pte <> empty then acc := ((cpu, vpage), decode pte) :: !acc)
        row)
    tbl.ptes;
  !acc

let master_ptes t ~pmap =
  match space t ~pmap with
  | None -> []
  | Some sp -> table_ptes sp.master

let replica_ptes t ~pmap ~node =
  match space t ~pmap with
  | Some sp when node >= 0 && node < Array.length sp.by_node ->
      Option.fold ~none:[] ~some:table_ptes sp.by_node.(node)
  | Some _ | None -> []

let table_frames t =
  let acc = ref [] in
  let add_table =
    iter_pages (fun ~level:_ ~prefix:_ home ->
        match home with
        | Local f -> acc := (f.Frame_table.node, f) :: !acc
        | Global _ -> ())
  in
  iter_spaces
    (fun sp ->
      add_table sp.master;
      for i = Hash_order.length sp.replicas - 1 downto 0 do
        add_table (Hash_order.get sp.replicas i)
      done)
    t;
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
    walk_ns = t.cf.c_walk_ns;
    pte_updates = t.c.c_pte_updates;
    pte_shootdowns = t.c.c_pte_shootdowns;
    shootdown_ns = t.cf.c_shootdown_ns;
    replicas_built = t.c.c_replicas_built;
    replicas_dropped = t.c.c_replicas_dropped;
    pt_frames =
      Array.init (Topo.cpu_nodes t.topo) (fun node ->
          Frame_table.pt_in_use t.frames ~node);
    global_pt_pages = t.c.c_global_pt_pages;
  }
