open Numa_machine

type t = {
  config : Config.t;
  frames : Frame_table.t;
  mmu : Mmu.t;
  sink : Cost_sink.t;
  stats : Numa_stats.t;
  obs : Numa_obs.Hub.t;
  manager : Numa_manager.t;
  paging : Paging.t;
  mutable policy : Policy.t;
  pragmas : (int * int, Numa_vm.Region_attr.pragma) Hashtbl.t;  (** (pmap, vpage) *)
  live_pmaps : (int, string) Hashtbl.t;
  mutable next_pmap : int;
  mutable pending : int array;  (** lpage -> its unsynced page-out tag, or -1 *)
  mutable next_seq : int;
}

let create ?obs ?(pt_mode = Pt.Off) ~config ~policy () =
  let obs = match obs with Some h -> h | None -> Numa_obs.Hub.create () in
  let frames = Frame_table.create config in
  let mmu = Mmu.create ~obs config in
  let sink = Cost_sink.create ~n_cpus:config.Config.n_cpus in
  let stats = Numa_stats.create () in
  let manager = Numa_manager.create ~obs ~config ~frames ~mmu ~sink ~stats () in
  let paging = Paging.create ~sink ~obs ~config () in
  Frame_table.attach_paging frames paging;
  (* Materialised page tables: only attached when asked for, so the
     default pmap layer keeps today's free-walk translation exactly. *)
  (match pt_mode with
  | Pt.Off -> ()
  | Pt.Shared | Pt.Replicated _ ->
      Mmu.attach_pt mmu (Pt.create ~obs ~config ~frames ~sink ~mode:pt_mode ()));
  {
    config;
    frames;
    mmu;
    sink;
    stats;
    obs;
    manager;
    paging;
    policy;
    pragmas = Hashtbl.create 64;
    live_pmaps = Hashtbl.create 8;
    next_pmap = 0;
    pending = [||];
    next_seq = 0;
  }

let set_policy t p = t.policy <- p
let policy t = t.policy
let manager t = t.manager
let paging t = t.paging
let stats t = t.stats
let mmu t = t.mmu
let frames t = t.frames
let sink t = t.sink
let config t = t.config
let obs t = t.obs

let set_pragma t ~pmap ~vpage ~n pragma =
  for v = vpage to vpage + n - 1 do
    match pragma with
    | None -> Hashtbl.remove t.pragmas (pmap, v)
    | Some p -> Hashtbl.replace t.pragmas (pmap, v) p
  done

(* Most runs set no pragma, so skip hashing a fresh key on every enter. *)
let pragma_at t ~pmap ~vpage =
  if Hashtbl.length t.pragmas = 0 then None else Hashtbl.find_opt t.pragmas (pmap, vpage)

(* --- the pmap interface ------------------------------------------------ *)

let pmap_create t ~name =
  let id = t.next_pmap in
  t.next_pmap <- id + 1;
  Hashtbl.replace t.live_pmaps id name;
  id

let drop_entry t (e : Mmu.entry) = Numa_manager.drop_mapping t.manager ~by_cpu:e.cpu e

let pmap_destroy t id =
  if not (Hashtbl.mem t.live_pmaps id) then invalid_arg "pmap_destroy: unknown pmap";
  List.iter (drop_entry t) (Mmu.entries_of_pmap t.mmu ~pmap:id);
  Hashtbl.filter_map_inplace
    (fun (pm, _) pragma -> if pm = id then None else Some pragma)
    t.pragmas;
  Hashtbl.remove t.live_pmaps id

(* The frame of the copy the protocol just placed on [node]. *)
let placed_frame t ~lpage ~node =
  match Numa_manager.replica_frame t.manager ~lpage ~node with
  | Some frame -> Mmu.Frame frame
  | None -> assert false

let enter t ~pmap ~cpu ~vpage ~lpage ~min_prot ~max_prot =
  if Prot.compare min_prot max_prot > 0 then
    invalid_arg "pmap_enter: min protection exceeds max";
  if min_prot = Prot.No_access then invalid_arg "pmap_enter: no-access mapping";
  let access =
    match min_prot with
    | Prot.Read_write -> Access.Store
    | Prot.Read_only -> Access.Load
    | Prot.No_access -> assert false
  in
  let obs_on = Numa_obs.Hub.enabled t.obs in
  (* Fault-time entry is the paging tier's reference signal: the LRU-approx
     victim policy compares these ticks. *)
  Paging.touch t.paging ~lpage;
  let result =
    match pragma_at t ~pmap ~vpage with
    | Some (Numa_vm.Region_attr.Homed home) ->
        Numa_manager.request_homed t.manager ~lpage ~cpu ~home
    | (Some Numa_vm.Region_attr.Noncacheable | Some Numa_vm.Region_attr.Cacheable | None)
      as pragma ->
        let decision =
          match pragma with
          | Some Numa_vm.Region_attr.Noncacheable -> Protocol.Place_global
          | Some Numa_vm.Region_attr.Cacheable -> Protocol.Place_local
          | Some (Numa_vm.Region_attr.Homed _) -> assert false
          | None ->
              let pinned_before = if obs_on then t.policy.Policy.n_pinned () else 0 in
              let decision = t.policy.Policy.decide ~lpage ~cpu ~access in
              if obs_on then begin
                let reason = t.policy.Policy.explain ~lpage in
                Numa_obs.Hub.emit t.obs
                  (Numa_obs.Event.Policy_decision
                     { lpage; cpu; global = decision = Protocol.Place_global; reason });
                if t.policy.Policy.n_pinned () > pinned_before then
                  Numa_obs.Hub.emit t.obs
                    (Numa_obs.Event.Page_pin { lpage; cpu; reason })
              end;
              decision
        in
        Numa_manager.request t.manager ~lpage ~cpu ~access ~decision
  in
  if result.Numa_manager.moved then t.policy.Policy.note (Policy.Page_moved { lpage });
  let phys, prot =
    match result.Numa_manager.final_state with
    | Numa_manager.Read_only -> (placed_frame t ~lpage ~node:cpu, Prot.Read_only)
    | Numa_manager.Local_writable owner ->
        assert (owner = cpu);
        (placed_frame t ~lpage ~node:cpu, max_prot)
    | Numa_manager.Global_writable -> (Mmu.Global_frame lpage, max_prot)
    | Numa_manager.Homed home -> (placed_frame t ~lpage ~node:home, max_prot)
    | Numa_manager.Untouched -> assert false
  in
  Mmu.enter t.mmu ~pmap ~cpu ~vpage ~lpage ~prot ~phys;
  t.stats.Numa_stats.enters <- t.stats.Numa_stats.enters + 1;
  if obs_on then
    Numa_obs.Hub.emit t.obs
      (Numa_obs.Event.Fault_resolved
         {
           cpu;
           vpage;
           lpage;
           write = access = Access.Store;
           state =
             Format.asprintf "%a" Numa_manager.pp_state result.Numa_manager.final_state;
         })

let protect t ~pmap ~vpage ~n prot =
  let doomed = ref [] in
  Mmu.iter_range t.mmu ~pmap ~vpage ~n (fun e ->
      let clamped = Prot.min e.prot prot in
      if clamped = Prot.No_access then doomed := e :: !doomed
      else if clamped <> e.prot then begin
        Mmu.set_prot t.mmu e clamped;
        Cost_sink.charge t.sink ~cpu:e.cpu ~cat:Numa_obs.Profile.Tlb_shootdown
          ~lpage:e.lpage (Cost.tlb_shootdown_ns t.config)
      end);
  List.iter (drop_entry t) !doomed

let remove t ~pmap ~vpage ~n =
  let doomed = ref [] in
  Mmu.iter_range t.mmu ~pmap ~vpage ~n (fun e -> doomed := e :: !doomed);
  List.iter (drop_entry t) !doomed

let remove_all t ~lpage = List.iter (drop_entry t) (Mmu.entries_of_lpage t.mmu ~lpage)

let free_page t ~lpage =
  Numa_manager.reset_page t.manager ~lpage;
  Paging.note_free t.paging ~lpage;
  t.policy.Policy.note (Policy.Page_freed { lpage });
  (* A tag names its page, so its sync finds it by index. *)
  let tag = (t.next_seq * t.config.Config.global_pages) + lpage in
  t.next_seq <- t.next_seq + 1;
  if lpage >= Array.length t.pending then t.pending <- Rows.fit t.pending lpage (-1);
  t.pending.(lpage) <- tag;
  tag

let free_page_sync t tag =
  (* Cleanup ran eagerly at [free_page]; the tag records that the lazy
     window closed. A negative, unknown, already-synced or superseded tag
     is a caller bug. *)
  let lpage = tag mod t.config.Config.global_pages in
  if tag < 0 || lpage >= Array.length t.pending || t.pending.(lpage) <> tag then
    invalid_arg "pmap_free_page_sync: unknown or already-synced tag";
  t.pending.(lpage) <- -1

let resident t ~pmap ~cpu ~vpage =
  match Mmu.lookup t.mmu ~pmap ~cpu ~vpage with
  | None -> None
  | Some e -> Some (e.prot, Mmu.phys_location ~cpu e.phys)

let read_slot t ~pmap ~cpu ~vpage =
  match Mmu.lookup t.mmu ~pmap ~cpu ~vpage with
  | None -> invalid_arg "read_slot: not resident"
  | Some e -> (
      match e.phys with
      | Mmu.Frame f -> Frame_table.read_local f
      | Mmu.Global_frame l -> Frame_table.read_global t.frames ~lpage:l)

let write_slot t ~pmap ~cpu ~vpage v =
  match Mmu.lookup t.mmu ~pmap ~cpu ~vpage with
  | None -> invalid_arg "write_slot: not resident"
  | Some e -> (
      if not (Prot.allows e.prot Access.Store) then
        invalid_arg "write_slot: mapping not writable";
      match e.phys with
      | Mmu.Frame f -> Frame_table.write_local t.frames f v
      | Mmu.Global_frame l -> Frame_table.write_global t.frames ~lpage:l v)

let ops t : Numa_vm.Pmap_intf.ops =
  {
    pmap_create = (fun ~name -> pmap_create t ~name);
    pmap_destroy = (fun id -> pmap_destroy t id);
    enter =
      (fun ~pmap ~cpu ~vpage ~lpage ~min_prot ~max_prot ->
        enter t ~pmap ~cpu ~vpage ~lpage ~min_prot ~max_prot);
    protect = (fun ~pmap ~vpage ~n prot -> protect t ~pmap ~vpage ~n prot);
    remove = (fun ~pmap ~vpage ~n -> remove t ~pmap ~vpage ~n);
    remove_all = (fun ~lpage -> remove_all t ~lpage);
    zero_page =
      (fun ~lpage ->
        Numa_manager.mark_zero_fill t.manager ~lpage;
        (* Born dirty: a zero-filled page has no backing-store copy. *)
        Paging.note_zero_fill t.paging ~lpage);
    install_page =
      (fun ~lpage ~content ->
        (* The Reading bracket makes the install's own global write a
           non-mutation for dirty tracking and marks the entry as
           in-flight, un-evictable disk I/O. *)
        Paging.begin_read t.paging ~lpage;
        Numa_manager.install_content t.manager ~lpage ~content;
        Paging.end_read t.paging ~lpage);
    extract_content =
      (fun ~lpage ->
        Numa_manager.sync_if_dirty t.manager ~lpage;
        Frame_table.read_global t.frames ~lpage);
    free_page = (fun ~lpage -> free_page t ~lpage);
    free_page_sync = (fun tag -> free_page_sync t tag);
    resident = (fun ~pmap ~cpu ~vpage -> resident t ~pmap ~cpu ~vpage);
    read_slot = (fun ~pmap ~cpu ~vpage -> read_slot t ~pmap ~cpu ~vpage);
    write_slot = (fun ~pmap ~cpu ~vpage v -> write_slot t ~pmap ~cpu ~vpage v);
  }

let migrate_node_pages t ~src ~dst = Numa_manager.migrate_owned_pages t.manager ~src ~dst

let reconsider_scan t =
  let expired = t.policy.Policy.expired_pins () in
  List.iter
    (fun lpage ->
      if Numa_obs.Hub.enabled t.obs then
        Numa_obs.Hub.emit t.obs (Numa_obs.Event.Page_unpin { lpage });
      remove_all t ~lpage)
    expired;
  let n = List.length expired in
  if n > 0 && Numa_obs.Hub.enabled t.obs then
    Numa_obs.Hub.emit t.obs (Numa_obs.Event.Reconsider_scan { expired = n });
  n

let placement_summary t =
  let untouched = ref 0 and ro = ref 0 and lw = ref 0 and gw = ref 0 and homed = ref 0 in
  for lpage = 0 to t.config.Config.global_pages - 1 do
    match Numa_manager.state_of t.manager ~lpage with
    | Numa_manager.Untouched -> incr untouched
    | Numa_manager.Read_only -> incr ro
    | Numa_manager.Local_writable _ -> incr lw
    | Numa_manager.Global_writable -> incr gw
    | Numa_manager.Homed _ -> incr homed
  done;
  [
    ("untouched", !untouched);
    ("read-only (replicated)", !ro);
    ("local-writable", !lw);
    ("global-writable", !gw);
    ("homed", !homed);
  ]

let figure2 () =
  String.concat "\n"
    [
      "ACE pmap layer (Figure 2)";
      "";
      "        Mach machine-independent VM";
      "                  |";
      "           [pmap interface]";
      "                  |";
      "           +--------------+      +--------------+";
      "           | pmap manager | ---- | NUMA manager |";
      "           +--------------+      +--------------+";
      "                  |                     |";
      "           [mmu interface]       +-------------+";
      "                  |              | NUMA policy |";
      "           +--------------+      +-------------+";
      "           |  MMU (Rosetta)|";
      "           +--------------+";
      "";
    ]
