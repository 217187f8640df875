(* Materialised page tables: the mode parser, walk charging on TLB misses,
   table-frame accounting against the per-node pools, Mitosis-style
   replication (eager and on-demand) with shootdown-aware PTE management,
   the stale-replica-PTE invariant regression, conservation under
   replication, the byte-identity of [--pt-mode none], the array tables
   against the hashtable ones they replaced ([Pt_oracle]), and the
   root-first copy of a replica build that runs its pool dry. *)

open Numa_machine
module System = Numa_system.System
module Report = Numa_system.Report
module Engine = Numa_sim.Engine
module Profile = Numa_obs.Profile
module App_sig = Numa_apps.App_sig
module Pmap_manager = Numa_core.Pmap_manager

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let parse_plan s =
  match Numa_faults.Plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S failed to parse: %s" s e

let run_app ?(pt_mode = Pt.Off) ?(paranoid = false) ?(profiling = false)
    ?(faults = Numa_faults.Plan.empty) ?(n_cpus = 4) ?(scale = 0.05)
    ?(config_tweak = Fun.id) name =
  let app = Option.get (Numa_apps.Registry.find name) in
  let config = config_tweak (Config.ace ~n_cpus ()) in
  let sys = System.create ~pt_mode ~paranoid ~profiling ~faults ~config () in
  app.App_sig.setup sys { App_sig.nthreads = n_cpus; scale; seed = 42L };
  let report = System.run sys in
  (sys, report)

let pt_of sys =
  match Mmu.pt (Pmap_manager.mmu (System.pmap_manager sys)) with
  | Some pt -> pt
  | None -> Alcotest.fail "expected a Pt.t attached to the MMU"

let pt_section (r : Report.t) =
  match r.Report.pt with
  | Some p -> p
  | None -> Alcotest.fail "expected a pt section in the report"

let violations_of (r : Report.t) =
  match r.Report.robustness with
  | Some rb -> rb.Report.invariant_violations
  | None -> Alcotest.fail "expected a robustness section"

(* --- the mode parser ----------------------------------------------------- *)

let test_mode_parse () =
  List.iter
    (fun (s, m) ->
      (match Pt.mode_of_string s with
      | Ok got -> Alcotest.(check bool) (s ^ " parses") true (got = m)
      | Error e -> Alcotest.failf "%S failed to parse: %s" s e);
      (* Canonical renderings round-trip. *)
      let canonical = Pt.mode_to_string m in
      match Pt.mode_of_string canonical with
      | Ok got -> Alcotest.(check bool) (canonical ^ " round-trips") true (got = m)
      | Error e -> Alcotest.failf "%S failed to reparse: %s" canonical e)
    [
      ("none", Pt.Off);
      ("shared", Pt.Shared);
      ("replicated", Pt.Replicated None);
      ("replicated:1", Pt.Replicated (Some 1));
      ("replicated:3", Pt.Replicated (Some 3));
    ];
  List.iter
    (fun s ->
      match Pt.mode_of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error msg ->
          Alcotest.(check bool) (s ^ " has a message") true (String.length msg > 0))
    [ "off"; "replicated:0"; "replicated:-1"; "replicated:x"; "mitosis"; "" ]

(* --- off = byte-identical ------------------------------------------------ *)

let test_off_attaches_nothing () =
  let sys, r = run_app "imatmult" in
  (match Mmu.pt (Pmap_manager.mmu (System.pmap_manager sys)) with
  | None -> ()
  | Some _ -> Alcotest.fail "default run must not materialise page tables");
  Alcotest.(check bool) "no pt section" true (r.Report.pt = None);
  let json = Numa_obs.Json.to_string (Report.to_json r) in
  Alcotest.(check bool) "no pt key in JSON" false (contains ~sub:"\"pt\"" json);
  let text = Format.asprintf "%a" Report.pp r in
  Alcotest.(check bool) "no pt line in text" false (contains ~sub:"pt:" text)

(* --- walk charging ------------------------------------------------------- *)

let test_walks_price_tlb_misses () =
  let _, r_off = run_app "imatmult" in
  let _, r = run_app ~pt_mode:Pt.Shared "imatmult" in
  let p = pt_section r in
  Alcotest.(check string) "mode rendered" "shared" p.Report.pt_mode;
  (* Walk charges shift the clock, which can shift migration timing and
     with it shootdown-induced misses — but every miss this run took paid
     for exactly one walk. *)
  Alcotest.(check int) "one walk per software-TLB miss" r.Report.tlb_misses
    p.Report.walks;
  Alcotest.(check bool) "walks happened" true (p.Report.walks > 0);
  Alcotest.(check bool) "each walk reads at least the root" true
    (p.Report.walk_levels >= p.Report.walks);
  Alcotest.(check bool) "walk latency charged" true (p.Report.walk_ns > 0.);
  (* Walks are kernel work: the run must be slower than the free one. *)
  Alcotest.(check bool) "system time grew" true
    (r.Report.total_system_ns > r_off.Report.total_system_ns);
  (* The per-CPU TLB split the section carries sums to the totals. *)
  let hits = Array.fold_left (fun a (h, _, _) -> a + h) 0 p.Report.tlb_per_cpu in
  let misses = Array.fold_left (fun a (_, m, _) -> a + m) 0 p.Report.tlb_per_cpu in
  Alcotest.(check int) "per-cpu hits sum" r.Report.tlb_hits hits;
  Alcotest.(check int) "per-cpu misses sum" r.Report.tlb_misses misses

let test_off_report_unchanged_by_other_modes_existing () =
  (* The pt-mode axis must not leak into mode-off reports: running other
     modes first (same process, fresh systems) changes nothing. *)
  let _, r1 = run_app "primes3" in
  let _, _ = run_app ~pt_mode:(Pt.Replicated None) "primes3" in
  let _, r2 = run_app "primes3" in
  Alcotest.(check string) "byte-identical text report"
    (Format.asprintf "%a" Report.pp r1)
    (Format.asprintf "%a" Report.pp r2)

(* --- table frames in the pools ------------------------------------------- *)

let test_table_frames_census () =
  let sys, r = run_app ~pt_mode:Pt.Shared ~paranoid:true "imatmult" in
  Alcotest.(check int) "paranoid sweep clean" 0 (violations_of r);
  let pt = pt_of sys in
  let s = Pt.stats pt in
  let frames = System.pmap_manager sys |> Pmap_manager.frames in
  Array.iteri
    (fun node n ->
      Alcotest.(check int)
        (Printf.sprintf "pt_in_use on node %d" node)
        n
        (Frame_table.pt_in_use frames ~node))
    s.Pt.pt_frames;
  let total = Array.fold_left ( + ) 0 s.Pt.pt_frames in
  Alcotest.(check int) "table_frames matches the census"
    (total + s.Pt.global_pt_pages)
    (List.length (Pt.table_frames pt) + s.Pt.global_pt_pages);
  Alcotest.(check bool) "tables are physically backed" true
    (total + s.Pt.global_pt_pages > 0)

let test_pt_pages_fall_back_to_global () =
  (* Starve the pools: with one local frame per CPU the radix path pages
     cannot all live locally, so allocation degrades to the shared level
     instead of failing. *)
  let _, r =
    run_app ~pt_mode:Pt.Shared ~paranoid:true
      ~config_tweak:(fun c -> { c with Config.local_pages_per_cpu = 1 })
      "imatmult"
  in
  Alcotest.(check int) "paranoid sweep clean" 0 (violations_of r);
  let p = pt_section r in
  Alcotest.(check bool) "some table pages went global" true
    (p.Report.global_pt_pages > 0)

(* --- replication --------------------------------------------------------- *)

let test_eager_replication () =
  let sys, r = run_app ~pt_mode:(Pt.Replicated None) ~paranoid:true "imatmult" in
  Alcotest.(check int) "paranoid sweep clean" 0 (violations_of r);
  let p = pt_section r in
  Alcotest.(check bool) "replicas built" true (p.Report.replicas_built > 0);
  Alcotest.(check bool) "installs propagated" true (p.Report.pte_updates > 0);
  let pt = pt_of sys in
  List.iter
    (fun pmap ->
      let nodes = Pt.replica_nodes pt ~pmap in
      Alcotest.(check int)
        (Printf.sprintf "pmap %d replicated on every other node" pmap)
        3 (List.length nodes);
      (* Every replica is an exact image of the master. *)
      let master = List.sort compare (Pt.master_ptes pt ~pmap) in
      List.iter
        (fun node ->
          Alcotest.(check bool)
            (Printf.sprintf "pmap %d node %d replica coherent" pmap node)
            true
            (List.sort compare (Pt.replica_ptes pt ~pmap ~node) = master))
        nodes)
    (Pt.pmaps pt)

let test_on_demand_replication_capped () =
  let sys, r = run_app ~pt_mode:(Pt.Replicated (Some 1)) ~paranoid:true "imatmult" in
  Alcotest.(check int) "paranoid sweep clean" 0 (violations_of r);
  let pt = pt_of sys in
  List.iter
    (fun pmap ->
      Alcotest.(check bool)
        (Printf.sprintf "pmap %d at most 1 replica" pmap)
        true
        (List.length (Pt.replica_nodes pt ~pmap) <= 1))
    (Pt.pmaps pt);
  let p = pt_section r in
  Alcotest.(check bool) "walks still charged" true (p.Report.walks > 0)

let test_node_offline_drops_replicas () =
  let _, r =
    run_app ~pt_mode:(Pt.Replicated None) ~paranoid:true
      ~faults:(parse_plan "node-offline:1@5") "imatmult"
  in
  Alcotest.(check int) "zero violations through the drill" 0 (violations_of r);
  let p = pt_section r in
  Alcotest.(check bool) "dying node's replicas dropped" true
    (p.Report.replicas_dropped > 0);
  Alcotest.(check int) "no table frames left on the dead node" 0
    p.Report.pt_frames.(1)

(* --- the stale-replica regression ---------------------------------------- *)

let test_stale_replica_caught () =
  (* Plant the bug shootdown-aware PTE management exists to prevent; the
     sweep must name it. This is the ISSUE's acceptance regression. *)
  let sys, r = run_app ~pt_mode:(Pt.Replicated None) ~paranoid:true "imatmult" in
  Alcotest.(check int) "clean before the corruption" 0 (violations_of r);
  let pt = pt_of sys in
  let lpage =
    (* Corrupt a page that is certainly in some replica: take any
       master PTE of the first pmap. *)
    match Pt.pmaps pt with
    | pmap :: _ -> (
        match Pt.master_ptes pt ~pmap with
        | (_, pte) :: _ -> pte.Pt.pte_lpage
        | [] -> Alcotest.fail "no master PTEs to corrupt")
    | [] -> Alcotest.fail "no pmaps materialised"
  in
  (match Pt.corrupt_replica pt ~lpage with
  | Some _ -> ()
  | None -> Alcotest.failf "no replica PTE found for lpage %d" lpage);
  let report = System.audit sys in
  let stale =
    List.filter
      (fun v -> contains ~sub:"STALE replica PTE" v)
      report.Numa_core.Invariant.violations
  in
  Alcotest.(check bool) "sweep names the stale replica PTE" true (stale <> []);
  Alcotest.(check bool) "pt relation was actually swept" true
    (report.Numa_core.Invariant.pt_checked > 0)

let test_stale_pte_fault_plan () =
  (* End to end through the injector: the planted corruption surfaces as
     report violations; on a mode without replicas it is a no-op. *)
  let _, r =
    run_app ~pt_mode:(Pt.Replicated None) ~paranoid:true
      ~faults:(parse_plan "stale-pte:0@50") "imatmult"
  in
  Alcotest.(check bool) "violations reported" true (violations_of r > 0);
  (match r.Report.robustness with
  | Some rb ->
      Alcotest.(check bool) "first violation names the stale PTE" true
        (List.exists (fun v -> contains ~sub:"STALE replica PTE" v)
           rb.Report.first_violations)
  | None -> Alcotest.fail "expected robustness");
  let _, r_shared =
    run_app ~pt_mode:Pt.Shared ~paranoid:true
      ~faults:(parse_plan "stale-pte:0@50") "imatmult"
  in
  Alcotest.(check int) "no replicas, nothing to corrupt" 0 (violations_of r_shared)

(* The audit's text for a planted stale PTE, pinned verbatim: the run of
   [numa_sim run imatmult --scale 0.1 --paranoid --pt-mode replicated
   --faults stale-pte:3@100]. The fault retargets the first replica PTE
   that maps lpage 3 at lpage 4; the findings name that PTE and the
   master's by lpage, frame (id@node) and position, so they hold across
   any change to how a PTE is stored. *)
let test_stale_pte_audit_text () =
  let _, r =
    run_app ~pt_mode:(Pt.Replicated None) ~paranoid:true ~n_cpus:7 ~scale:0.1
      ~faults:(parse_plan "stale-pte:3@100") "imatmult"
  in
  match r.Report.robustness with
  | None -> Alcotest.fail "expected robustness"
  | Some rb ->
      Alcotest.(check int) "one fault injected" 1 rb.Report.faults_injected;
      Alcotest.(check int) "violations over the run" 32 rb.Report.invariant_violations;
      Alcotest.(check (list string))
        "the first failing check's findings"
        [
          "pmap 0: STALE replica PTE on node 1 (cpu 2, vpage 4) holds lpage 4 via frame \
           4@2 but the master holds lpage 3 via frame 4@2";
        ]
        rb.Report.first_violations

(* --- conservation -------------------------------------------------------- *)

let test_conservation_under_replication () =
  List.iter
    (fun pt_mode ->
      let sys, r = run_app ~pt_mode ~profiling:true "imatmult" in
      let p = Option.get (System.profile sys) in
      let engine = System.engine sys in
      let n_cpus = (System.config sys).Config.n_cpus in
      let clocks = Array.init n_cpus (fun cpu -> Engine.clock_ns engine ~cpu) in
      (match
         Profile.check_conservation p ~clocks ~elapsed_ns:(Engine.elapsed_ns engine)
       with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s: conservation violated: %s" (Pt.mode_to_string pt_mode)
            msg);
      (* The new categories actually carry the charges. *)
      let snap = Option.get r.Report.profile in
      let ns_of label =
        (* Kernel categories are children of the context nodes. *)
        List.fold_left
          (fun acc (n : Profile.tree_node) ->
            List.fold_left
              (fun a (l, ns) -> if l = label then a +. ns else a)
              acc n.Profile.children)
          0. snap.Profile.categories
      in
      Alcotest.(check bool)
        (Pt.mode_to_string pt_mode ^ " pt_walk charged")
        true (ns_of "pt_walk" > 0.))
    [ Pt.Shared; Pt.Replicated None ]

(* --- pressure interaction (satellite: squeeze + pages + replicated) ------ *)

let test_squeeze_under_replication () =
  (* A shrunk logical-page pool (the --pages path) plus a frame squeeze,
     under eager replication: the pager and the table allocator now fight
     for the same pools, and the paging free-list/census invariants must
     hold throughout. *)
  let _, r =
    run_app ~pt_mode:(Pt.Replicated None) ~paranoid:true
      ~faults:(parse_plan "frame-squeeze:0:0.5@5")
      ~config_tweak:(fun c -> { c with Config.global_pages = 12 })
      ~scale:0.1 "imatmult"
  in
  Alcotest.(check int) "zero violations under squeeze + pressure" 0 (violations_of r);
  (match r.Report.paging with
  | Some pg -> Alcotest.(check bool) "the run actually paged" true (pg.Report.evictions > 0)
  | None -> Alcotest.fail "expected paging activity under a 12-page pool");
  let p = pt_section r in
  Alcotest.(check bool) "tables stayed materialised" true
    (Array.fold_left ( + ) 0 p.Report.pt_frames + p.Report.global_pt_pages > 0)

(* --- explain-page sees walks (satellite: timeline events) ----------------- *)

let test_explain_page_has_pt_events () =
  let app = Option.get (Numa_apps.Registry.find "imatmult") in
  let config = Config.ace ~n_cpus:4 () in
  let obs = Numa_obs.Hub.create () in
  let audit = Numa_obs.Page_audit.create ~lpage:0 in
  Numa_obs.Page_audit.attach audit obs;
  let sys = System.create ~obs ~pt_mode:(Pt.Replicated None) ~config () in
  app.App_sig.setup sys { App_sig.nthreads = 4; scale = 0.05; seed = 42L };
  ignore (System.run sys);
  let story = Numa_obs.Page_audit.explain audit in
  Alcotest.(check bool) "timeline shows page-table walks" true
    (contains ~sub:"page-table walk" story)

(* --- determinism --------------------------------------------------------- *)

let test_replicated_deterministic () =
  let once () =
    let _, r = run_app ~pt_mode:(Pt.Replicated None) ~paranoid:true "primes3" in
    Format.asprintf "%a" Report.pp r
  in
  Alcotest.(check string) "same bytes twice" (once ()) (once ())

(* --- the array tables against the hashtable oracle ------------------------- *)

type pt_op =
  | P_enter of {
      pmap : int;
      cpu : int;
      vpage : int;
      lpage : int;
      frame : int option;
      prot : Prot.t;
    }
  | P_remove of { pmap : int; cpu : int; vpage : int; lpage : int }
  | P_prot of { pmap : int; cpu : int; vpage : int; lpage : int; prot : Prot.t }
  | P_walk of { pmap : int; cpu : int; vpage : int; lpage : int }
  | P_offline of int
  | P_online of int
  | P_sweep of int
  | P_corrupt of int

let pt_op_print = function
  | P_enter { pmap; cpu; vpage; lpage; frame; _ } ->
      Printf.sprintf "enter(p%d c%d v%d l%d %s)" pmap cpu vpage lpage
        (match frame with Some n -> Printf.sprintf "frame@%d" n | None -> "global")
  | P_remove { pmap; cpu; vpage; _ } -> Printf.sprintf "remove(p%d c%d v%d)" pmap cpu vpage
  | P_prot { pmap; cpu; vpage; _ } -> Printf.sprintf "prot(p%d c%d v%d)" pmap cpu vpage
  | P_walk { pmap; cpu; vpage; _ } -> Printf.sprintf "walk(p%d c%d v%d)" pmap cpu vpage
  | P_offline n -> Printf.sprintf "offline(%d)" n
  | P_online n -> Printf.sprintf "online(%d)" n
  | P_sweep c -> Printf.sprintf "sweep(c%d)" c
  | P_corrupt l -> Printf.sprintf "corrupt(l%d)" l

type pt_case = { n_cpus : int; mode : Pt.mode; dry : bool list; ops : pt_op list }

(* Vpages spread over three leaf pages, so leaf rows and path pages both
   grow mid-sequence. *)
let pt_case_gen =
  let open QCheck.Gen in
  let* n_cpus = int_range 2 7 in
  let* mode =
    oneofl
      [ Pt.Off; Pt.Shared; Pt.Replicated None; Pt.Replicated (Some 1); Pt.Replicated (Some 2) ]
  in
  let* dry = list_repeat n_cpus (frequency [ (3, return false); (1, return true) ]) in
  let pmap = int_bound 1 and cpu = int_bound (n_cpus - 1) and lpage = int_bound 9 in
  let vpage = oneofl [ 0; 1; 9; 255; 256; 300; 511; 512; 700 ] in
  let prot = oneofl [ Prot.No_access; Prot.Read_only; Prot.Read_write ] in
  let op =
    frequency
      [
        ( 6,
          let+ pmap and+ cpu and+ vpage and+ lpage and+ prot
          and+ frame = opt (int_bound (n_cpus - 1)) in
          P_enter { pmap; cpu; vpage; lpage; frame; prot } );
        (2, let+ pmap and+ cpu and+ vpage and+ lpage in P_remove { pmap; cpu; vpage; lpage });
        ( 2,
          let+ pmap and+ cpu and+ vpage and+ lpage and+ prot in
          P_prot { pmap; cpu; vpage; lpage; prot } );
        (5, let+ pmap and+ cpu and+ vpage and+ lpage in P_walk { pmap; cpu; vpage; lpage });
        (1, map (fun n -> P_offline n) cpu);
        (1, map (fun n -> P_online n) cpu);
        (1, map (fun c -> P_sweep c) cpu);
        (1, map (fun l -> P_corrupt l) lpage);
      ]
  in
  let+ ops = list_size (int_range 1 40) op in
  { n_cpus; mode; dry; ops }

let pt_case_arbitrary =
  QCheck.make
    ~shrink:(fun c -> QCheck.Iter.map (fun ops -> { c with ops }) (QCheck.Shrink.list c.ops))
    ~print:(fun c ->
      Printf.sprintf "%d cpus, %s, dry pools [%s]: %s" c.n_cpus (Pt.mode_to_string c.mode)
        (String.concat "; " (List.map string_of_bool c.dry))
        (String.concat "; " (List.map pt_op_print c.ops)))
    pt_case_gen

(* One implementation's machine: its own pools (one data frame taken on
   every node before any pool is squeezed), sink and hub. *)
type pt_side = {
  frames : Frame_table.t;
  sink : Cost_sink.t;
  hub : Numa_obs.Hub.t;
  data : Frame_table.local_frame array;
  events : Numa_obs.Event.t list ref;
}

let pt_side config dry =
  let frames = Frame_table.create config in
  let data =
    Array.init config.Config.n_cpus (fun node ->
        Option.get (Frame_table.alloc_local frames ~node))
  in
  List.iteri (fun node d -> if d then ignore (Frame_table.squeeze frames ~node ~frac:0.)) dry;
  let hub = Numa_obs.Hub.create () in
  let events = ref [] in
  Numa_obs.Hub.attach hub ~name:"twin" (fun ~ts:_ ev -> events := ev :: !events);
  { frames; sink = Cost_sink.create ~n_cpus:config.Config.n_cpus; hub; data; events }

let frame_key =
  Option.map (fun (f : Frame_table.local_frame) -> (f.Frame_table.node, f.Frame_table.id))

(* Everything the two implementations must agree on, in one comparable
   value. The ACE latencies are whole nanoseconds, so charge sums are
   exact whatever order the table pages are visited in. *)
let pt_view side ~pmaps ~master ~replicas ~frames_of ~stats =
  let sorted l = List.sort compare l in
  let n = Array.length side.data in
  let census = Array.make n 0 in
  List.iter (fun (node, _) -> census.(node) <- census.(node) + 1) frames_of;
  ( stats,
    Array.init n (fun cpu -> Cost_sink.total_charged side.sink ~cpu),
    List.rev !(side.events),
    List.map
      (fun pmap ->
        (pmap, sorted (master pmap), List.map (fun (node, l) -> (node, sorted l)) (replicas pmap)))
      pmaps,
    census,
    Array.init n (fun node -> Frame_table.pt_in_use side.frames ~node) )

let array_view side pt =
  let ptes =
    List.map (fun (k, (p : Pt.pte)) -> (k, (p.pte_lpage, p.pte_frame, p.pte_prot)))
  in
  let s = Pt.stats pt in
  pt_view side ~pmaps:(Pt.pmaps pt)
    ~master:(fun pmap -> ptes (Pt.master_ptes pt ~pmap))
    ~replicas:(fun pmap ->
      List.map
        (fun node -> (node, ptes (Pt.replica_ptes pt ~pmap ~node)))
        (Pt.replica_nodes pt ~pmap))
    ~frames_of:(Pt.table_frames pt)
    ~stats:
      ( (s.walks, s.walk_levels, s.walk_ns, s.pte_updates, s.pte_shootdowns),
        (s.shootdown_ns, s.replicas_built, s.replicas_dropped, s.pt_frames, s.global_pt_pages) )

let oracle_view side pt =
  let ptes =
    List.map (fun (k, (p : Pt_oracle.pte)) -> (k, (p.pte_lpage, frame_key p.pte_frame, p.pte_prot)))
  in
  let s = Pt_oracle.stats pt in
  pt_view side ~pmaps:(Pt_oracle.pmaps pt)
    ~master:(fun pmap -> ptes (Pt_oracle.master_ptes pt ~pmap))
    ~replicas:(fun pmap ->
      List.map
        (fun node -> (node, ptes (Pt_oracle.replica_ptes pt ~pmap ~node)))
        (Pt_oracle.replica_nodes pt ~pmap))
    ~frames_of:(Pt_oracle.table_frames pt)
    ~stats:
      ( (s.walks, s.walk_levels, s.walk_ns, s.pte_updates, s.pte_shootdowns),
        (s.shootdown_ns, s.replicas_built, s.replicas_dropped, s.pt_frames, s.global_pt_pages) )

let oracle_mode = function
  | Pt.Off -> Pt_oracle.Off
  | Pt.Shared -> Pt_oracle.Shared
  | Pt.Replicated cap -> Pt_oracle.Replicated cap

let prop_pt_matches_oracle =
  QCheck.Test.make ~name:"array page tables = hashtable oracle" ~count:300 pt_case_arbitrary
    (fun c ->
      let config = Config.ace ~n_cpus:c.n_cpus ~local_pages_per_cpu:64 () in
      let a = pt_side config c.dry and o = pt_side config c.dry in
      let pt = Pt.create ~obs:a.hub ~config ~frames:a.frames ~sink:a.sink ~mode:c.mode () in
      let oracle =
        Pt_oracle.create ~obs:o.hub ~config ~frames:o.frames ~sink:o.sink
          ~mode:(oracle_mode c.mode) ()
      in
      List.iteri
        (fun i op ->
          (match op with
          | P_enter { pmap; cpu; vpage; lpage; frame; prot } ->
              let frame side = Option.map (fun n -> side.data.(n)) frame in
              Pt.enter pt ~pmap ~cpu ~vpage ~lpage ~frame:(frame a) ~prot;
              Pt_oracle.enter oracle ~pmap ~cpu ~vpage ~lpage ~frame:(frame o) ~prot
          | P_remove { pmap; cpu; vpage; lpage } ->
              Pt.remove pt ~pmap ~cpu ~vpage ~lpage;
              Pt_oracle.remove oracle ~pmap ~cpu ~vpage ~lpage
          | P_prot { pmap; cpu; vpage; lpage; prot } ->
              Pt.update_prot pt ~pmap ~cpu ~vpage ~lpage ~prot;
              Pt_oracle.update_prot oracle ~pmap ~cpu ~vpage ~lpage ~prot
          | P_walk { pmap; cpu; vpage; lpage } ->
              Pt.walk pt ~pmap ~cpu ~vpage ~lpage;
              Pt_oracle.walk oracle ~pmap ~cpu ~vpage ~lpage
          | P_offline node ->
              Frame_table.set_node_online a.frames ~node false;
              Frame_table.set_node_online o.frames ~node false;
              Pt.node_offline pt ~node;
              Pt_oracle.node_offline oracle ~node
          | P_online node ->
              Frame_table.set_node_online a.frames ~node true;
              Frame_table.set_node_online o.frames ~node true
          | P_sweep by_cpu ->
              let built = Pt.daemon_sweep pt ~by_cpu in
              if built <> Pt_oracle.daemon_sweep oracle ~by_cpu then
                QCheck.Test.fail_reportf "op %d (%s): daemon sweeps built differently" i
                  (pt_op_print op)
          | P_corrupt lpage ->
              if Pt.corrupt_replica pt ~lpage <> Pt_oracle.corrupt_replica oracle ~lpage then
                QCheck.Test.fail_reportf "op %d (%s): corrupted different replicas" i
                  (pt_op_print op));
          if array_view a pt <> oracle_view o oracle then
            QCheck.Test.fail_reportf "op %d (%s): the tables disagree" i (pt_op_print op))
        c.ops;
      true)

(* A replica build that runs its pool dry partway copies root first: the
   root, then the directory, then the leaves by prefix, so the pool's
   last frames go to the pages nearest the root. *)
let test_replica_build_root_first () =
  let config = Config.ace ~n_cpus:2 ~local_pages_per_cpu:64 () in
  let frames = Frame_table.create config in
  let sink = Cost_sink.create ~n_cpus:2 in
  let hub = Numa_obs.Hub.create () in
  let walks = ref [] in
  Numa_obs.Hub.attach hub ~name:"walks" (fun ~ts:_ ev ->
      match ev with
      | Numa_obs.Event.Pt_walk { vpage; ns; _ } -> walks := (vpage, ns) :: !walks
      | _ -> ());
  let pt = Pt.create ~obs:hub ~config ~frames ~sink ~mode:(Pt.Replicated (Some 1)) () in
  (* Root, directory and three leaves, all on node 0. *)
  List.iter
    (fun vpage ->
      Pt.enter pt ~pmap:0 ~cpu:0 ~vpage ~lpage:vpage ~frame:None ~prot:Prot.Read_write)
    [ 512; 0; 256 ];
  Alcotest.(check int) "five master pages on node 0" 5 (Pt.stats pt).Pt.pt_frames.(0);
  (* Room for three table pages on node 1, then its first walk builds
     the replica there. *)
  Alcotest.(check int) "node 1 squeezed to three frames" 3
    (Frame_table.squeeze frames ~node:1 ~frac:(3. /. 64.));
  List.iter (fun vpage -> Pt.walk pt ~pmap:0 ~cpu:1 ~vpage ~lpage:vpage) [ 0; 256; 512 ];
  let s = Pt.stats pt in
  Alcotest.(check (list int)) "replica on node 1" [ 1 ] (Pt.replica_nodes pt ~pmap:0);
  Alcotest.(check int) "three replica pages local" 3 s.Pt.pt_frames.(1);
  Alcotest.(check int) "two went to the shared level" 2 s.Pt.global_pt_pages;
  let local = config.Config.local_fetch_ns and global = config.Config.global_fetch_ns in
  Alcotest.(check (list (pair int (float 0.))))
    "root, directory and the first leaf are the local ones"
    [ (0, 3. *. local); (256, (2. *. local) +. global); (512, (2. *. local) +. global) ]
    (List.rev !walks)

(* A negative pmap has no tables: the reads, the removals and a walk (also
   through the MMU, which then translates nothing) find it absent and
   change nothing, while [enter], which would make its tables, rejects it
   by name. *)
let test_negative_pmap () =
  let config = Config.ace ~n_cpus:2 () in
  let frames = Frame_table.create config in
  let sink = Cost_sink.create ~n_cpus:2 in
  let obs = Numa_obs.Hub.create () in
  let events = ref 0 in
  Numa_obs.Hub.attach obs ~name:"count" (fun ~ts:_ _ -> incr events);
  let pt = Pt.create ~obs ~config ~frames ~sink ~mode:(Pt.Replicated None) () in
  Pt.enter pt ~pmap:0 ~cpu:0 ~vpage:3 ~lpage:3 ~frame:None ~prot:Prot.Read_write;
  let before = Pt.stats pt in
  let charged = Cost_sink.grand_total sink and emitted = !events in
  let untouched what =
    Alcotest.(check bool) (what ^ ": nothing counted") true (Pt.stats pt = before);
    Alcotest.(check (float 0.)) (what ^ ": nothing charged") charged
      (Cost_sink.grand_total sink);
    Alcotest.(check int) (what ^ ": no event") emitted !events;
    Alcotest.(check (list int)) (what ^ ": pmap 0 alone has tables") [ 0 ] (Pt.pmaps pt)
  in
  Alcotest.(check bool) "no master pte" true
    (Option.is_none (Pt.master_pte pt ~pmap:(-1) ~cpu:0 ~vpage:3));
  Alcotest.(check int) "no master ptes" 0 (List.length (Pt.master_ptes pt ~pmap:(-1)));
  Alcotest.(check (list int)) "no replicas" [] (Pt.replica_nodes pt ~pmap:(-1));
  Alcotest.(check int) "no replica ptes" 0
    (List.length (Pt.replica_ptes pt ~pmap:(-1) ~node:1));
  Pt.remove pt ~pmap:(-1) ~cpu:0 ~vpage:3 ~lpage:3;
  Pt.update_prot pt ~pmap:(-1) ~cpu:0 ~vpage:3 ~lpage:3 ~prot:Prot.Read_only;
  Alcotest.(check bool) "nothing charged or counted" true (Pt.stats pt = before);
  Alcotest.(check (list int)) "pmap 0 alone has tables" [ 0 ] (Pt.pmaps pt);
  Alcotest.(check int) "pmap 0's replica keeps its pte" 1
    (List.length (Pt.replica_ptes pt ~pmap:0 ~node:1));
  let rejected = Invalid_argument "Pt: negative pmap" in
  Alcotest.check_raises "enter" rejected (fun () ->
      Pt.enter pt ~pmap:(-1) ~cpu:0 ~vpage:3 ~lpage:3 ~frame:None ~prot:Prot.Read_write);
  Pt.walk pt ~pmap:(-1) ~cpu:0 ~vpage:3 ~lpage:(-1);
  untouched "walk";
  let mmu = Mmu.create config in
  Mmu.attach_pt mmu pt;
  Alcotest.(check bool) "translate finds nothing" true
    (Option.is_none (Mmu.translate mmu ~pmap:(-1) ~cpu:0 ~vpage:3));
  untouched "translate's walk"

let suite =
  [
    Alcotest.test_case "pt-mode parser round-trips and rejects" `Quick test_mode_parse;
    Alcotest.test_case "pt-mode none attaches nothing" `Quick test_off_attaches_nothing;
    Alcotest.test_case "every TLB miss pays a charged walk" `Quick
      test_walks_price_tlb_misses;
    Alcotest.test_case "mode-off reports unaffected by other runs" `Quick
      test_off_report_unchanged_by_other_modes_existing;
    Alcotest.test_case "table frames tracked in the per-node pools" `Quick
      test_table_frames_census;
    Alcotest.test_case "starved pools send table pages global" `Quick
      test_pt_pages_fall_back_to_global;
    Alcotest.test_case "eager replication mirrors the master" `Quick
      test_eager_replication;
    Alcotest.test_case "on-demand replication respects its cap" `Quick
      test_on_demand_replication_capped;
    Alcotest.test_case "node offline drops and evacuates tables" `Quick
      test_node_offline_drops_replicas;
    Alcotest.test_case "invariant sweep catches a stale replica PTE" `Quick
      test_stale_replica_caught;
    Alcotest.test_case "stale-pte fault plan end to end" `Quick
      test_stale_pte_fault_plan;
    Alcotest.test_case "stale-pte audit text" `Quick test_stale_pte_audit_text;
    Alcotest.test_case "conservation holds with walk/shootdown charges" `Quick
      test_conservation_under_replication;
    Alcotest.test_case "squeeze + small pool + replication stays coherent" `Quick
      test_squeeze_under_replication;
    Alcotest.test_case "explain-page timeline includes walks" `Quick
      test_explain_page_has_pt_events;
    Alcotest.test_case "replicated runs are deterministic" `Quick
      test_replicated_deterministic;
    Alcotest.test_case "a dry replica build copies root first" `Quick
      test_replica_build_root_first;
    Alcotest.test_case "a negative pmap reads as absent" `Quick test_negative_pmap;
    QCheck_alcotest.to_alcotest prop_pt_matches_oracle;
  ]
