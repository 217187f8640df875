(* Unit tests for the machine model: configuration, cost model, frame
   table, MMU. *)

open Numa_machine

let small_config () = Config.ace ~n_cpus:4 ~local_pages_per_cpu:8 ~global_pages:32 ()

(* --- config ------------------------------------------------------------- *)

let test_ace_defaults () =
  let c = Config.ace () in
  Alcotest.(check int) "7 CPUs (Table 4 machine)" 7 c.Config.n_cpus;
  Alcotest.(check int) "2 KB pages" 2048 (Config.page_size_bytes c);
  Alcotest.(check (float 1e-9)) "local fetch 0.65us" 650. c.Config.local_fetch_ns;
  Alcotest.(check (float 1e-9)) "global store 1.4us" 1400. c.Config.global_store_ns

let test_gl_ratios () =
  let c = Config.ace () in
  (* Section 2.2: 2.3x slower on fetches, ~2x at 45% stores. *)
  Alcotest.(check (float 0.05)) "fetch ratio 2.3" 2.31
    (Config.global_to_local_fetch_ratio c);
  Alcotest.(check (float 0.05)) "mixed ratio ~2" 1.98
    (Config.global_to_local_ratio c ~store_fraction:0.45)

let test_butterfly_preset () =
  let c = Config.butterfly_like () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Config.validate c));
  Alcotest.(check (float 1e-9)) "global = remote fetch" c.Config.remote_fetch_ns
    c.Config.global_fetch_ns;
  Alcotest.(check bool) "steeper G/L than the ACE" true
    (Config.global_to_local_fetch_ratio c > Config.global_to_local_fetch_ratio (Config.ace ()))

let test_config_validation () =
  let ok = Config.validate (Config.ace ()) in
  Alcotest.(check bool) "ace is valid" true (Result.is_ok ok);
  let bad = { (Config.ace ()) with Config.n_cpus = 0 } in
  Alcotest.(check bool) "0 cpus invalid" true (Result.is_error (Config.validate bad));
  let uma =
    { (Config.ace ()) with Config.global_fetch_ns = 100.; global_store_ns = 100. }
  in
  Alcotest.(check bool) "global faster than local rejected" true
    (Result.is_error (Config.validate uma))

(* --- cost model ---------------------------------------------------------- *)

let test_reference_costs () =
  let c = Config.ace () in
  let r ~access ~where = Cost.reference_ns c ~access ~where in
  Alcotest.(check (float 1e-9)) "local load" 650. (r ~access:Access.Load ~where:Location.Local_here);
  Alcotest.(check (float 1e-9)) "local store" 840. (r ~access:Access.Store ~where:Location.Local_here);
  Alcotest.(check (float 1e-9)) "global load" 1500. (r ~access:Access.Load ~where:Location.In_global);
  Alcotest.(check (float 1e-9)) "global store" 1400. (r ~access:Access.Store ~where:Location.In_global);
  Alcotest.(check (float 1e-9)) "batch of 10" 6500.
    (Cost.references_ns c ~access:Access.Load ~where:Location.Local_here ~count:10)

let test_page_copy_costs () =
  let c = Config.ace () in
  (* 512 words x (global fetch + local store). *)
  Alcotest.(check (float 1e-6)) "copy in" (512. *. (1500. +. 840.))
    (Cost.page_copy_ns c ~src:Location.In_global ~dst:Location.Local_here);
  Alcotest.(check (float 1e-6)) "sync out" (512. *. (650. +. 1400.))
    (Cost.page_copy_ns c ~src:Location.Local_here ~dst:Location.In_global);
  Alcotest.(check (float 1e-6)) "zero local" (512. *. 840.)
    (Cost.page_zero_ns c ~dst:Location.Local_here)

let test_location_classification () =
  Alcotest.(check bool) "own local" true
    (Location.where_from ~cpu:2 (Location.Local 2) = Location.Local_here);
  Alcotest.(check bool) "other local is remote" true
    (Location.where_from ~cpu:2 (Location.Local 3) = Location.Remote_local);
  Alcotest.(check bool) "global" true
    (Location.where_from ~cpu:2 Location.Global = Location.In_global)

let test_prot_lattice () =
  Alcotest.(check bool) "ro allows load" true (Prot.allows Prot.Read_only Access.Load);
  Alcotest.(check bool) "ro blocks store" false (Prot.allows Prot.Read_only Access.Store);
  Alcotest.(check bool) "rw allows store" true (Prot.allows Prot.Read_write Access.Store);
  Alcotest.(check bool) "none blocks load" false (Prot.allows Prot.No_access Access.Load);
  Alcotest.(check bool) "min" true (Prot.min Prot.Read_write Prot.Read_only = Prot.Read_only);
  Alcotest.(check bool) "max" true (Prot.max Prot.No_access Prot.Read_only = Prot.Read_only);
  Alcotest.(check bool) "of_access store" true (Prot.of_access Access.Store = Prot.Read_write)

(* --- cost sink -------------------------------------------------------------- *)

let test_cost_sink () =
  let s = Cost_sink.create ~n_cpus:2 in
  Cost_sink.charge s ~cpu:0 100.;
  Cost_sink.charge s ~cpu:0 50.;
  Cost_sink.charge s ~cpu:1 10.;
  Alcotest.(check (float 1e-9)) "pending" 150. (Cost_sink.pending s ~cpu:0);
  Alcotest.(check (float 1e-9)) "drain" 150. (Cost_sink.drain s ~cpu:0);
  Alcotest.(check (float 1e-9)) "drained" 0. (Cost_sink.pending s ~cpu:0);
  Alcotest.(check (float 1e-9)) "cumulative survives drain" 150.
    (Cost_sink.total_charged s ~cpu:0);
  Alcotest.(check (float 1e-9)) "grand total" 160. (Cost_sink.grand_total s);
  Alcotest.check_raises "negative charge"
    (Invalid_argument "Cost_sink.charge: negative charge") (fun () ->
      Cost_sink.charge s ~cpu:0 (-1.))

(* --- frame table --------------------------------------------------------------- *)

let test_frame_alloc_exhaustion () =
  let t = Frame_table.create (small_config ()) in
  let frames = ref [] in
  for _ = 1 to 8 do
    match Frame_table.alloc_local t ~node:1 with
    | Some f -> frames := f :: !frames
    | None -> Alcotest.fail "pool exhausted early"
  done;
  Alcotest.(check int) "in use" 8 (Frame_table.local_in_use t ~node:1);
  Alcotest.(check bool) "exhausted" true (Frame_table.alloc_local t ~node:1 = None);
  Alcotest.(check bool) "other node unaffected" true
    (Frame_table.alloc_local t ~node:0 <> None);
  List.iter (Frame_table.free_local t) !frames;
  Alcotest.(check int) "all freed" 0 (Frame_table.local_in_use t ~node:1)

let test_frame_double_free () =
  let t = Frame_table.create (small_config ()) in
  let f = Option.get (Frame_table.alloc_local t ~node:0) in
  Frame_table.free_local t f;
  (* The message names the frame and its node: a double free is a protocol
     bug, and the ids are what you need to find it in a trace. *)
  Alcotest.check_raises "double free"
    (Invalid_argument
       (Printf.sprintf "Frame_table.free_local: double free of frame %d on node %d"
          f.Frame_table.id 0))
    (fun () -> Frame_table.free_local t f)

let test_frame_double_free_offline () =
  let t = Frame_table.create (small_config ()) in
  let f = Option.get (Frame_table.alloc_local t ~node:1) in
  Frame_table.free_local t f;
  (* Taking the node offline must not silence the error path. *)
  Frame_table.set_node_online t ~node:1 false;
  Alcotest.check_raises "double free while offline"
    (Invalid_argument
       (Printf.sprintf "Frame_table.free_local: double free of frame %d on node %d"
          f.Frame_table.id 1))
    (fun () -> Frame_table.free_local t f)

let test_frame_content_transfer () =
  let t = Frame_table.create (small_config ()) in
  Frame_table.write_global t ~lpage:3 77;
  let f = Option.get (Frame_table.alloc_local t ~node:0) in
  Frame_table.copy_global_to_local t ~lpage:3 f;
  Alcotest.(check int) "copied in" 77 (Frame_table.read_local f);
  Frame_table.write_local t f 88;
  Frame_table.copy_local_to_global t f ~lpage:3;
  Alcotest.(check int) "synced out" 88 (Frame_table.read_global t ~lpage:3);
  Frame_table.zero_global t ~lpage:3;
  Alcotest.(check int) "zeroed" 0 (Frame_table.read_global t ~lpage:3)

let test_frame_alloc_resets_cell () =
  let t = Frame_table.create (small_config ()) in
  let f = Option.get (Frame_table.alloc_local t ~node:0) in
  Frame_table.write_local t f 42;
  Frame_table.free_local t f;
  let f2 = Option.get (Frame_table.alloc_local t ~node:0) in
  Alcotest.(check int) "fresh frame zeroed" 0 (Frame_table.read_local f2)

(* --- mmu ----------------------------------------------------------------------- *)

let test_mmu_enter_lookup_remove () =
  let t = Mmu.create (small_config ()) in
  Mmu.enter t ~pmap:0 ~cpu:1 ~vpage:10 ~lpage:5 ~prot:Prot.Read_only
    ~phys:(Mmu.Global_frame 5);
  (match Mmu.lookup t ~pmap:0 ~cpu:1 ~vpage:10 with
  | Some e ->
      Alcotest.(check int) "lpage" 5 e.Mmu.lpage;
      Alcotest.(check bool) "prot" true (e.Mmu.prot = Prot.Read_only)
  | None -> Alcotest.fail "mapping missing");
  Alcotest.(check bool) "other cpu not mapped" true
    (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:10 = None);
  Mmu.remove t ~pmap:0 ~cpu:1 ~vpage:10;
  Alcotest.(check bool) "removed" true (Mmu.lookup t ~pmap:0 ~cpu:1 ~vpage:10 = None);
  Alcotest.(check int) "no mappings" 0 (Mmu.n_mappings t)

let test_mmu_reverse_index () =
  let t = Mmu.create (small_config ()) in
  for cpu = 0 to 3 do
    Mmu.enter t ~pmap:0 ~cpu ~vpage:7 ~lpage:9 ~prot:Prot.Read_only
      ~phys:(Mmu.Global_frame 9)
  done;
  Mmu.enter t ~pmap:1 ~cpu:0 ~vpage:3 ~lpage:9 ~prot:Prot.Read_only
    ~phys:(Mmu.Global_frame 9);
  Alcotest.(check int) "5 mappings of lpage 9" 5
    (List.length (Mmu.entries_of_lpage t ~lpage:9));
  Alcotest.(check int) "pmap 1 has 1" 1 (List.length (Mmu.entries_of_pmap t ~pmap:1))

let test_mmu_replace_updates_reverse () =
  let t = Mmu.create (small_config ()) in
  Mmu.enter t ~pmap:0 ~cpu:0 ~vpage:1 ~lpage:2 ~prot:Prot.Read_only
    ~phys:(Mmu.Global_frame 2);
  (* Re-enter the same (pmap, cpu, vpage) against a different lpage. *)
  Mmu.enter t ~pmap:0 ~cpu:0 ~vpage:1 ~lpage:6 ~prot:Prot.Read_write
    ~phys:(Mmu.Global_frame 6);
  Alcotest.(check int) "old lpage unindexed" 0
    (List.length (Mmu.entries_of_lpage t ~lpage:2));
  Alcotest.(check int) "new lpage indexed" 1
    (List.length (Mmu.entries_of_lpage t ~lpage:6));
  Alcotest.(check int) "single mapping" 1 (Mmu.n_mappings t)

(* Removing an entry a second time, after its (pmap, cpu, vpage) was
   mapped again, must leave the newer mapping alone. *)
let test_mmu_stale_remove_entry () =
  let t = Mmu.create (small_config ()) in
  let enter lpage =
    Mmu.enter t ~pmap:0 ~cpu:0 ~vpage:5 ~lpage ~prot:Prot.Read_only
      ~phys:(Mmu.Global_frame lpage);
    Option.get (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:5)
  in
  let e1 = enter 1 in
  Mmu.remove_entry t e1;
  let e2 = enter 2 in
  Mmu.remove_entry t e1;
  Alcotest.(check bool) "lookup still finds e2" true
    (match Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:5 with Some e -> e == e2 | None -> false);
  Alcotest.(check int) "one mapping" 1 (Mmu.n_mappings t);
  Alcotest.(check bool) "lpage 2 lists exactly e2" true
    (match Mmu.entries_of_lpage t ~lpage:2 with [ e ] -> e == e2 | _ -> false);
  Alcotest.(check int) "lpage 1 lists nothing" 0 (List.length (Mmu.entries_of_lpage t ~lpage:1))

let test_mmu_remove_range () =
  let t = Mmu.create (small_config ()) in
  for v = 0 to 9 do
    Mmu.enter t ~pmap:0 ~cpu:0 ~vpage:v ~lpage:v ~prot:Prot.Read_write
      ~phys:(Mmu.Global_frame v)
  done;
  Mmu.remove_range t ~pmap:0 ~vpage:2 ~n:5;
  Alcotest.(check int) "5 remain" 5 (Mmu.n_mappings t);
  Alcotest.(check bool) "edge below kept" true (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:1 <> None);
  Alcotest.(check bool) "range start gone" true (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:2 = None);
  Alcotest.(check bool) "range end gone" true (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:6 = None);
  Alcotest.(check bool) "edge above kept" true (Mmu.lookup t ~pmap:0 ~cpu:0 ~vpage:7 <> None)

let test_mmu_phys_location () =
  let ft = Frame_table.create (small_config ()) in
  let f = Option.get (Frame_table.alloc_local ft ~node:2) in
  Alcotest.(check bool) "frame local to node" true
    (Mmu.phys_location ~cpu:2 (Mmu.Frame f) = Location.Local_here);
  Alcotest.(check bool) "frame remote otherwise" true
    (Mmu.phys_location ~cpu:0 (Mmu.Frame f) = Location.Remote_local);
  Alcotest.(check bool) "global frame" true
    (Mmu.phys_location ~cpu:0 (Mmu.Global_frame 1) = Location.In_global)

(* --- the array MMU against the hashtable oracle ---------------------------- *)

type mmu_op =
  | M_enter of {
      pmap : int;
      cpu : int;
      vpage : int;
      lpage : int;
      prot : Prot.t;
      frame : int option;
    }
  | M_spread of { pmap : int; vpage : int; lpage : int }
      (** forty mappings of one lpage, over every CPU: its bucket resizes *)
  | M_remove of { pmap : int; cpu : int; vpage : int }
  | M_remove_entry of { lpage : int; nth : int }
  | M_remove_stale
  | M_remove_all of int  (** every mapping of one lpage, as the protocol drops them *)
  | M_set_prot of { lpage : int; nth : int; prot : Prot.t }
  | M_translate of { pmap : int; cpu : int; vpage : int }
  | M_remove_range of { pmap : int; vpage : int; n : int }
  | M_lookup of { pmap : int; cpu : int; vpage : int }

let mmu_op_print = function
  | M_enter { pmap; cpu; vpage; lpage; frame; _ } ->
      Printf.sprintf "enter(p%d c%d v%d l%d %s)" pmap cpu vpage lpage
        (match frame with Some n -> Printf.sprintf "frame@%d" n | None -> "global")
  | M_spread { pmap; vpage; lpage } -> Printf.sprintf "spread(p%d v%d l%d)" pmap vpage lpage
  | M_remove { pmap; cpu; vpage } -> Printf.sprintf "remove(p%d c%d v%d)" pmap cpu vpage
  | M_remove_entry { lpage; nth } -> Printf.sprintf "remove_entry(l%d #%d)" lpage nth
  | M_remove_stale -> "remove_stale"
  | M_remove_all lpage -> Printf.sprintf "remove_all(l%d)" lpage
  | M_set_prot { lpage; nth; _ } -> Printf.sprintf "set_prot(l%d #%d)" lpage nth
  | M_translate { pmap; cpu; vpage } -> Printf.sprintf "translate(p%d c%d v%d)" pmap cpu vpage
  | M_remove_range { pmap; vpage; n } ->
      Printf.sprintf "remove_range(p%d v%d n%d)" pmap vpage n
  | M_lookup { pmap; cpu; vpage } -> Printf.sprintf "lookup(p%d c%d v%d)" pmap cpu vpage

type mmu_case = { m_cpus : int; pt_mode : Pt.mode; m_ops : mmu_op list }

let mmu_lpages = 6

(* Sparse vpages, so rows grow mid-sequence; lookups, translations and
   removals also reach past every row and below zero. *)
let mmu_case_gen =
  let open QCheck.Gen in
  let* m_cpus = int_range 1 8 in
  let* pt_mode = oneofl [ Pt.Off; Pt.Shared; Pt.Replicated None; Pt.Replicated (Some 1) ] in
  let pmap = int_bound 2 and cpu = int_bound (m_cpus - 1) and lpage = int_bound (mmu_lpages - 1) in
  let vpage = oneofl [ 0; 1; 7; 63; 64; 300; 1023; 1024; 5000 ] in
  let wild l = frequency [ (4, l); (1, oneofl [ -1; -7; 3; 9; 100_000 ]) ] in
  let prot = oneofl [ Prot.No_access; Prot.Read_only; Prot.Read_write ] in
  let nth = int_bound 30 in
  let op =
    frequency
      [
        ( 8,
          let+ pmap and+ cpu and+ vpage and+ lpage and+ prot
          and+ frame = opt (int_bound (m_cpus - 1)) in
          M_enter { pmap; cpu; vpage; lpage; prot; frame } );
        (1, let+ pmap and+ vpage and+ lpage in M_spread { pmap; vpage; lpage });
        ( 2,
          let+ pmap = wild pmap and+ cpu = wild cpu and+ vpage = wild vpage in
          M_remove { pmap; cpu; vpage } );
        (3, let+ lpage and+ nth in M_remove_entry { lpage; nth });
        (1, return M_remove_stale);
        (2, map (fun l -> M_remove_all l) lpage);
        (2, let+ lpage and+ nth and+ prot in M_set_prot { lpage; nth; prot });
        ( 5,
          let+ pmap = wild pmap and+ cpu and+ vpage = wild vpage in
          M_translate { pmap; cpu; vpage } );
        ( 1,
          let+ pmap = wild pmap and+ vpage = wild vpage and+ n = int_range 1 1100 in
          M_remove_range { pmap; vpage; n } );
        ( 2,
          let+ pmap = wild pmap and+ cpu = wild cpu and+ vpage = wild vpage in
          M_lookup { pmap; cpu; vpage } );
      ]
  in
  let+ m_ops = list_size (int_range 1 60) op in
  { m_cpus; pt_mode; m_ops }

let mmu_case_arbitrary =
  QCheck.make
    ~shrink:(fun c -> QCheck.Iter.map (fun m_ops -> { c with m_ops }) (QCheck.Shrink.list c.m_ops))
    ~print:(fun c ->
      Printf.sprintf "%d cpus, pt %s: %s" c.m_cpus (Pt.mode_to_string c.pt_mode)
        (String.concat "; " (List.map mmu_op_print c.m_ops)))
    mmu_case_gen

(* One implementation's machine: its own pools (one data frame taken on
   every node), sink, hub and, unless the case's mode is off, tables. *)
type mmu_side = {
  ft : Frame_table.t;
  data : Frame_table.local_frame array;
  m_sink : Cost_sink.t;
  m_hub : Numa_obs.Hub.t;
  m_events : Numa_obs.Event.t list ref;
}

let mmu_side config pt_mode =
  let ft = Frame_table.create config in
  let data =
    Array.init config.Config.n_cpus (fun node -> Option.get (Frame_table.alloc_local ft ~node))
  in
  let m_hub = Numa_obs.Hub.create () in
  let m_events = ref [] in
  Numa_obs.Hub.attach m_hub ~name:"twin" (fun ~ts:_ ev -> m_events := ev :: !m_events);
  let m_sink = Cost_sink.create ~n_cpus:config.Config.n_cpus in
  let pt =
    match pt_mode with
    | Pt.Off -> None
    | Pt.Shared | Pt.Replicated _ ->
        Some (Pt.create ~obs:m_hub ~config ~frames:ft ~sink:m_sink ~mode:pt_mode ())
  in
  ({ ft; data; m_sink; m_hub; m_events }, pt)

type entry_view = int * int * int * int * Prot.t * (int * int) option * int

let frame_view (f : Frame_table.local_frame) = Some (f.Frame_table.node, f.Frame_table.id)

let array_entry (e : Mmu.entry) : entry_view =
  let frame, global =
    match e.phys with Mmu.Frame f -> (frame_view f, -1) | Mmu.Global_frame g -> (None, g)
  in
  (e.pmap, e.cpu, e.vpage, e.lpage, e.prot, frame, global)

let oracle_entry (e : Mmu_oracle.entry) : entry_view =
  let frame, global =
    match e.phys with
    | Mmu_oracle.Frame f -> (frame_view f, -1)
    | Mmu_oracle.Global_frame g -> (None, g)
  in
  (e.pmap, e.cpu, e.vpage, e.lpage, e.prot, frame, global)

(* Everything the two implementations must agree on, in one comparable
   value: reverse-map listings in order, pmap listings and the mapped
   lpages as sets, counters, per-CPU charges and hub events in order. *)
let mmu_view side ~n_cpus ~by_lpage ~by_pmap ~mapped ~n ~tlb =
  let probes = (-1 :: List.init mmu_lpages Fun.id) @ [ 100_000 ] in
  ( List.map by_lpage probes,
    List.map (fun pmap -> List.sort compare (by_pmap pmap)) [ -1; 0; 1; 2; 99 ],
    List.sort compare mapped,
    n,
    tlb,
    Array.init n_cpus (fun cpu -> Cost_sink.total_charged side.m_sink ~cpu),
    List.rev !(side.m_events) )

let array_mmu_view side mmu ~n_cpus =
  let mapped = ref [] in
  Mmu.iter_mapped_lpages mmu (fun l -> mapped := l :: !mapped);
  mmu_view side ~n_cpus
    ~by_lpage:(fun lpage -> List.map array_entry (Mmu.entries_of_lpage mmu ~lpage))
    ~by_pmap:(fun pmap -> List.map array_entry (Mmu.entries_of_pmap mmu ~pmap))
    ~mapped:!mapped ~n:(Mmu.n_mappings mmu)
    ~tlb:
      ( (Mmu.tlb_hits mmu, Mmu.tlb_misses mmu, Mmu.tlb_shootdowns mmu),
        List.init n_cpus (fun cpu -> Mmu.tlb_stats mmu ~cpu) )

let oracle_mmu_view side mmu ~n_cpus =
  let mapped = ref [] in
  Mmu_oracle.iter_mapped_lpages mmu (fun l -> mapped := l :: !mapped);
  mmu_view side ~n_cpus
    ~by_lpage:(fun lpage -> List.map oracle_entry (Mmu_oracle.entries_of_lpage mmu ~lpage))
    ~by_pmap:(fun pmap -> List.map oracle_entry (Mmu_oracle.entries_of_pmap mmu ~pmap))
    ~mapped:!mapped ~n:(Mmu_oracle.n_mappings mmu)
    ~tlb:
      ( (Mmu_oracle.tlb_hits mmu, Mmu_oracle.tlb_misses mmu, Mmu_oracle.tlb_shootdowns mmu),
        List.init n_cpus (fun cpu -> Mmu_oracle.tlb_stats mmu ~cpu) )

(* A bucket that grew past 64 mappings (two doublings of the 16 hash
   buckets that [Hashtbl.create 8] makes) lists them in the oracle's
   order, and once emptied lists its next mappings as a new table would:
   the order the hashtable MMU, which dropped emptied buckets, shot them
   down in. *)
let test_mmu_emptied_bucket_order () =
  let config = small_config () in
  let mmu = Mmu.create config and oracle = Mmu_oracle.create config in
  let enter ~cpu ~vpage =
    Mmu.enter mmu ~pmap:0 ~cpu ~vpage ~lpage:1 ~prot:Prot.Read_only ~phys:(Mmu.Global_frame 1);
    Mmu_oracle.enter oracle ~pmap:0 ~cpu ~vpage ~lpage:1 ~prot:Prot.Read_only
      ~phys:(Mmu_oracle.Global_frame 1)
  in
  let check_order what =
    Alcotest.(check (list (pair int int)))
      what
      (List.map
         (fun (e : Mmu_oracle.entry) -> (e.cpu, e.vpage))
         (Mmu_oracle.entries_of_lpage oracle ~lpage:1))
      (List.map (fun (e : Mmu.entry) -> (e.cpu, e.vpage)) (Mmu.entries_of_lpage mmu ~lpage:1))
  in
  for v = 0 to 79 do
    enter ~cpu:(v mod 4) ~vpage:v
  done;
  check_order "the oracle's order at the peak";
  List.iter (Mmu.remove_entry mmu) (Mmu.entries_of_lpage mmu ~lpage:1);
  List.iter (Mmu_oracle.remove_entry oracle) (Mmu_oracle.entries_of_lpage oracle ~lpage:1);
  Alcotest.(check int) "emptied" 0 (Mmu.n_mappings mmu);
  for v = 0 to 7 do
    enter ~cpu:(v mod 4) ~vpage:(100 + v)
  done;
  check_order "the oracle's order after the refill"

let nth_of l nth = match l with [] -> None | l -> Some (List.nth l (nth mod List.length l))

let prop_mmu_matches_oracle =
  QCheck.Test.make ~name:"array MMU = hashtable oracle" ~count:300 mmu_case_arbitrary (fun c ->
      let n_cpus = c.m_cpus in
      let config = Config.ace ~n_cpus ~local_pages_per_cpu:64 () in
      let a, a_pt = mmu_side config c.pt_mode and o, o_pt = mmu_side config c.pt_mode in
      let mmu = Mmu.create ~obs:a.m_hub config in
      let oracle = Mmu_oracle.create ~obs:o.m_hub config in
      Option.iter (Mmu.attach_pt mmu) a_pt;
      Option.iter (Mmu_oracle.attach_pt oracle) o_pt;
      (* The last entry [remove_entry] removed, for a stale second
         removal. *)
      let gone = ref None in
      let enter ~pmap ~cpu ~vpage ~lpage ~prot ~frame =
        let phys side ~local ~global =
          match frame with Some n -> local side.data.(n) | None -> global lpage
        in
        Mmu.enter mmu ~pmap ~cpu ~vpage ~lpage ~prot
          ~phys:(phys a ~local:(fun f -> Mmu.Frame f) ~global:(fun g -> Mmu.Global_frame g));
        Mmu_oracle.enter oracle ~pmap ~cpu ~vpage ~lpage ~prot
          ~phys:
            (phys o
               ~local:(fun f -> Mmu_oracle.Frame f)
               ~global:(fun g -> Mmu_oracle.Global_frame g))
      in
      let nth_entries ~lpage ~nth =
        ( nth_of (Mmu.entries_of_lpage mmu ~lpage) nth,
          nth_of (Mmu_oracle.entries_of_lpage oracle ~lpage) nth )
      in
      List.iteri
        (fun i op ->
          let disagree what =
            QCheck.Test.fail_reportf "op %d (%s): %s" i (mmu_op_print op) what
          in
          (match op with
          | M_enter { pmap; cpu; vpage; lpage; prot; frame } ->
              enter ~pmap ~cpu ~vpage ~lpage ~prot ~frame
          | M_spread { pmap; vpage; lpage } ->
              for k = 0 to 39 do
                enter ~pmap ~cpu:(k mod n_cpus) ~vpage:(vpage + k) ~lpage ~prot:Prot.Read_only
                  ~frame:None
              done
          | M_remove { pmap; cpu; vpage } ->
              Mmu.remove mmu ~pmap ~cpu ~vpage;
              Mmu_oracle.remove oracle ~pmap ~cpu ~vpage
          | M_remove_entry { lpage; nth } -> (
              match nth_entries ~lpage ~nth with
              | Some e, Some e' ->
                  Mmu.remove_entry mmu e;
                  Mmu_oracle.remove_entry oracle e';
                  gone := Some e
              | None, None -> ()
              | Some _, None | None, Some _ -> disagree "one side has no entry")
          | M_remove_stale -> (
              (* The oracle removes by key, so it would drop a newer
                 mapping at the same key; [Mmu] must change nothing. *)
              match !gone with
              | Some e ->
                  let before = array_mmu_view a mmu ~n_cpus in
                  Mmu.remove_entry mmu e;
                  if array_mmu_view a mmu ~n_cpus <> before then
                    disagree "a stale removal changed the map"
              | None -> ())
          | M_remove_all lpage ->
              List.iter (Mmu.remove_entry mmu) (Mmu.entries_of_lpage mmu ~lpage);
              List.iter (Mmu_oracle.remove_entry oracle)
                (Mmu_oracle.entries_of_lpage oracle ~lpage)
          | M_set_prot { lpage; nth; prot } -> (
              match nth_entries ~lpage ~nth with
              | Some e, Some e' ->
                  Mmu.set_prot mmu e prot;
                  Mmu_oracle.set_prot oracle e' prot
              | None, None -> ()
              | Some _, None | None, Some _ -> disagree "one side has no entry")
          | M_translate { pmap; cpu; vpage } ->
              (* Both sides call the same [Pt], which walks nothing for a
                 negative pmap; an [Invalid_argument] from either side is
                 compared as its message. *)
              let outcome translate view =
                match translate ~pmap ~cpu ~vpage with
                | found -> Ok (Option.map view found)
                | exception Invalid_argument msg -> Error msg
              in
              if
                outcome (Mmu.translate mmu) array_entry
                <> outcome (Mmu_oracle.translate oracle) oracle_entry
              then disagree "translations differ"
          | M_remove_range { pmap; vpage; n } ->
              Mmu.remove_range mmu ~pmap ~vpage ~n;
              Mmu_oracle.remove_range oracle ~pmap ~vpage ~n
          | M_lookup { pmap; cpu; vpage } ->
              if
                Option.map array_entry (Mmu.lookup mmu ~pmap ~cpu ~vpage)
                <> Option.map oracle_entry (Mmu_oracle.lookup oracle ~pmap ~cpu ~vpage)
              then disagree "lookups differ");
          if array_mmu_view a mmu ~n_cpus <> oracle_mmu_view o oracle ~n_cpus then
            disagree "the maps disagree")
        c.m_ops;
      true)

(* --- hash order against Hashtbl ------------------------------------------------- *)

type 'k order_op = O_add of 'k | O_remove of 'k | O_reset

type key3 = { k1 : int; k2 : int; k3 : int }

(* Mostly adds, so a sequence often passes 64 bindings (two doublings of
   the 16 buckets) before a rare reset; keys collide often enough that
   removals hit present and absent keys alike. *)
let hash_order_test ~name key print_key =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (100, map (fun k -> O_add k) key);
        (30, map (fun k -> O_remove k) key);
        (1, return O_reset);
      ]
  in
  let print = function
    | O_add k -> "add " ^ print_key k
    | O_remove k -> "remove " ^ print_key k
    | O_reset -> "reset"
  in
  QCheck.Test.make ~name ~count:200
    (QCheck.make
       ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map print ops))
       (list_size (int_range 1 400) op))

(* After every op, [Hash_order] lists what the table folds and, read
   downward, what it iterates. The table is unseeded even under
   OCAMLRUNPARAM=R, as [Hash_order] is. *)
let hash_order_matches_hashtbl ops =
  let tbl = Hashtbl.create ~random:false 8 and order = Hash_order.create () in
  List.iteri
    (fun i op ->
      (match op with
      | O_add k ->
          if not (Hashtbl.mem tbl k) then begin
            Hashtbl.add tbl k k;
            Hash_order.add order ~hash:(Hashtbl.hash k) k
          end
      | O_remove k ->
          Hashtbl.remove tbl k;
          Hash_order.remove order ~same:( = ) k
      | O_reset ->
          Hashtbl.reset tbl;
          Hash_order.reset order);
      let n = Hash_order.length order in
      if Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] <> Hash_order.to_list order then
        QCheck.Test.fail_reportf "op %d: the fold order differs at %d bindings" i n;
      let iterated = ref [] in
      Hashtbl.iter (fun _ v -> iterated := v :: !iterated) tbl;
      if List.rev !iterated <> List.init n (fun j -> Hash_order.get order (n - 1 - j)) then
        QCheck.Test.fail_reportf "op %d: the iter order differs at %d bindings" i n)
    ops;
  true

let prop_hash_order_int_keys =
  hash_order_test ~name:"hash order = Hashtbl, int keys" (QCheck.Gen.int_bound 255)
    string_of_int hash_order_matches_hashtbl

let prop_hash_order_record_keys =
  let key =
    QCheck.Gen.(
      let+ k1 = int_bound 3 and+ k2 = int_bound 7 and+ k3 = int_bound 15 in
      { k1; k2; k3 })
  in
  hash_order_test ~name:"hash order = Hashtbl, three-int keys" key
    (fun k -> Printf.sprintf "{%d,%d,%d}" k.k1 k.k2 k.k3)
    hash_order_matches_hashtbl

(* --- software TLB ------------------------------------------------------------------- *)

let test_tlb_hit_miss_counters () =
  let t : int Tlb.t = Tlb.create ~slots:16 () in
  Alcotest.(check bool) "cold lookup misses" true (Tlb.lookup t ~pmap:0 ~vpage:3 = None);
  Tlb.insert t ~pmap:0 ~vpage:3 42;
  (match Tlb.lookup t ~pmap:0 ~vpage:3 with
  | Some 42 -> ()
  | Some _ -> Alcotest.fail "wrong payload"
  | None -> Alcotest.fail "hit expected after insert");
  Alcotest.(check int) "one hit" 1 (Tlb.hits t);
  Alcotest.(check int) "one miss" 1 (Tlb.misses t);
  (* A different pmap mapping the same vpage is a distinct translation. *)
  Alcotest.(check bool) "other pmap misses" true (Tlb.lookup t ~pmap:1 ~vpage:3 = None)

let test_tlb_invalidate () =
  let t : int Tlb.t = Tlb.create ~slots:16 () in
  Tlb.insert t ~pmap:0 ~vpage:5 7;
  Alcotest.(check bool) "shootdown of another page is a no-op" false
    (Tlb.invalidate t ~pmap:0 ~vpage:6);
  Alcotest.(check bool) "precise shootdown drops the entry" true
    (Tlb.invalidate t ~pmap:0 ~vpage:5);
  Alcotest.(check bool) "entry gone" true (Tlb.lookup t ~pmap:0 ~vpage:5 = None);
  Alcotest.(check int) "one shootdown counted" 1 (Tlb.shootdowns t);
  Alcotest.(check bool) "double shootdown is a no-op" false
    (Tlb.invalidate t ~pmap:0 ~vpage:5);
  Alcotest.(check int) "still one shootdown" 1 (Tlb.shootdowns t)

let test_tlb_conflict_eviction () =
  let t : int Tlb.t = Tlb.create ~slots:16 () in
  (* Same pmap, vpages congruent mod the slot count: direct-mapped conflict. *)
  Tlb.insert t ~pmap:0 ~vpage:1 10;
  Tlb.insert t ~pmap:0 ~vpage:(1 + Tlb.size t) 20;
  Alcotest.(check bool) "conflicting fill evicted the old entry" true
    (Tlb.lookup t ~pmap:0 ~vpage:1 = None);
  (match Tlb.lookup t ~pmap:0 ~vpage:(1 + Tlb.size t) with
  | Some 20 -> ()
  | _ -> Alcotest.fail "new entry survives");
  Alcotest.(check int) "eviction is not a shootdown" 0 (Tlb.shootdowns t)

let test_tlb_flush_and_sizing () =
  let t : int Tlb.t = Tlb.create ~slots:20 () in
  Alcotest.(check int) "slots round up to a power of two" 32 (Tlb.size t);
  for v = 0 to 9 do
    Tlb.insert t ~pmap:0 ~vpage:v v
  done;
  Tlb.flush t;
  for v = 0 to 9 do
    Alcotest.(check bool) "flushed" true (Tlb.lookup t ~pmap:0 ~vpage:v = None)
  done;
  Alcotest.(check int) "flush is not a shootdown" 0 (Tlb.shootdowns t)

(* --- bus ---------------------------------------------------------------------------- *)

let test_bus_disabled_by_default () =
  let bus = Bus.create (Config.ace ()) in
  Alcotest.(check bool) "disabled" false (Bus.enabled bus);
  Alcotest.(check (float 0.)) "no delay" 0. (Bus.delay_ns bus ~now:0. ~words:1_000_000);
  Alcotest.(check int) "no accounting when disabled" 0 (Bus.total_words bus)

let test_bus_under_capacity_is_free () =
  let config = { (Config.ace ()) with Config.bus_words_per_ns = 0.02 } in
  let bus = Bus.create config in
  (* One word every 100 ns = 0.01 words/ns, half the capacity. *)
  for i = 0 to 99 do
    let d = Bus.delay_ns bus ~now:(float_of_int (i * 100)) ~words:1 in
    Alcotest.(check bool) "no queueing under capacity" true (d <= 50.)
  done

let test_bus_overload_queues () =
  let config = { (Config.ace ()) with Config.bus_words_per_ns = 0.01 } in
  let bus = Bus.create config in
  (* A 1000-word burst at t=0 takes 100_000 ns to drain; a second burst
     right behind it must wait for the first. *)
  let d1 = Bus.delay_ns bus ~now:0. ~words:1000 in
  Alcotest.(check (float 1e-9)) "first burst unqueued" 0. d1;
  let d2 = Bus.delay_ns bus ~now:10. ~words:1000 in
  Alcotest.(check (float 1.)) "second burst waits for the first" 99_990. d2;
  Alcotest.(check int) "traffic accounted" 2000 (Bus.total_words bus);
  Alcotest.(check bool) "delay accounted" true (Bus.total_delay_ns bus > 0.)

let test_bus_idle_gap_drains () =
  let config = { (Config.ace ()) with Config.bus_words_per_ns = 0.01 } in
  let bus = Bus.create config in
  ignore (Bus.delay_ns bus ~now:0. ~words:1000);
  (* After the backlog has fully drained, a new burst is unqueued. *)
  let d = Bus.delay_ns bus ~now:200_000. ~words:1000 in
  Alcotest.(check (float 1e-9)) "drained" 0. d

(* --- topology ---------------------------------------------------------------------- *)

let test_topology_render () =
  let s = Topology.render (Config.ace ()) in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions IPC bus" true (has "IPC");
  Alcotest.(check bool) "mentions global memory" true (has "global memory");
  Alcotest.(check bool) "has timings" true (has "0.65")

let suite =
  [
    Alcotest.test_case "ace defaults" `Quick test_ace_defaults;
    Alcotest.test_case "G/L ratios" `Quick test_gl_ratios;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "butterfly preset" `Quick test_butterfly_preset;
    Alcotest.test_case "reference costs" `Quick test_reference_costs;
    Alcotest.test_case "page copy costs" `Quick test_page_copy_costs;
    Alcotest.test_case "location classification" `Quick test_location_classification;
    Alcotest.test_case "protection lattice" `Quick test_prot_lattice;
    Alcotest.test_case "cost sink" `Quick test_cost_sink;
    Alcotest.test_case "frame alloc/exhaustion" `Quick test_frame_alloc_exhaustion;
    Alcotest.test_case "frame double free" `Quick test_frame_double_free;
    Alcotest.test_case "frame double free offline" `Quick test_frame_double_free_offline;
    Alcotest.test_case "frame content transfer" `Quick test_frame_content_transfer;
    Alcotest.test_case "frame cell reset on alloc" `Quick test_frame_alloc_resets_cell;
    Alcotest.test_case "mmu enter/lookup/remove" `Quick test_mmu_enter_lookup_remove;
    Alcotest.test_case "mmu reverse index" `Quick test_mmu_reverse_index;
    Alcotest.test_case "mmu replace updates reverse" `Quick test_mmu_replace_updates_reverse;
    Alcotest.test_case "mmu stale remove_entry" `Quick test_mmu_stale_remove_entry;
    Alcotest.test_case "mmu remove range" `Quick test_mmu_remove_range;
    Alcotest.test_case "mmu phys location" `Quick test_mmu_phys_location;
    Alcotest.test_case "mmu emptied bucket keeps its order" `Quick test_mmu_emptied_bucket_order;
    QCheck_alcotest.to_alcotest prop_mmu_matches_oracle;
    QCheck_alcotest.to_alcotest prop_hash_order_int_keys;
    QCheck_alcotest.to_alcotest prop_hash_order_record_keys;
    Alcotest.test_case "tlb hit/miss counters" `Quick test_tlb_hit_miss_counters;
    Alcotest.test_case "tlb precise shootdown" `Quick test_tlb_invalidate;
    Alcotest.test_case "tlb conflict eviction" `Quick test_tlb_conflict_eviction;
    Alcotest.test_case "tlb flush and sizing" `Quick test_tlb_flush_and_sizing;
    Alcotest.test_case "bus disabled by default" `Quick test_bus_disabled_by_default;
    Alcotest.test_case "bus under capacity" `Quick test_bus_under_capacity_is_free;
    Alcotest.test_case "bus overload queues" `Quick test_bus_overload_queues;
    Alcotest.test_case "bus drains when idle" `Quick test_bus_idle_gap_drains;
    Alcotest.test_case "topology render" `Quick test_topology_render;
  ]
