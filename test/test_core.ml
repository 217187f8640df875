(* Unit tests for the NUMA core: policies, the protocol executor, and the
   pmap manager, driven directly (no engine). *)

open Numa_machine
open Numa_core

let small_config ?(n_cpus = 4) ?(local_pages = 16) () =
  Config.ace ~n_cpus ~local_pages_per_cpu:local_pages ~global_pages:32 ()

type env = {
  mgr : Pmap_manager.t;
  ops : Numa_vm.Pmap_intf.ops;
  pmap : int;
  config : Config.t;
}

let make_env ?policy ?(config = small_config ()) () =
  let policy =
    match policy with
    | Some p -> p
    | None -> Policy.move_limit ~n_pages:config.Config.global_pages ()
  in
  let mgr = Pmap_manager.create ~config ~policy () in
  let ops = Pmap_manager.ops mgr in
  let pmap = ops.Numa_vm.Pmap_intf.pmap_create ~name:"t" in
  { mgr; ops; pmap; config }

(* Shorthand: fault-style entry for (cpu, vpage, lpage). vpage = lpage by
   convention in these tests. *)
let enter env ~cpu ~lpage ~(access : Access.t) =
  env.ops.Numa_vm.Pmap_intf.enter ~pmap:env.pmap ~cpu ~vpage:lpage ~lpage
    ~min_prot:(Prot.of_access access) ~max_prot:Prot.Read_write

let state env ~lpage = Numa_manager.state_of (Pmap_manager.manager env.mgr) ~lpage

(* The full directory/MMU/frame-pool sweep over one pmap layer. *)
let check_mgr mgr =
  let rep =
    Invariant.check ~manager:(Pmap_manager.manager mgr) ~mmu:(Pmap_manager.mmu mgr)
      ~frames:(Pmap_manager.frames mgr) ~config:(Pmap_manager.config mgr) ()
  in
  match Invariant.result rep with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant: %s" msg

let check_inv env = check_mgr env.mgr

let check_state env ~lpage expected =
  let got = state env ~lpage in
  if got <> expected then
    Alcotest.failf "expected %a, got %a" Numa_manager.pp_state expected
      Numa_manager.pp_state got

(* --- policy units ------------------------------------------------------ *)

let test_policy_move_limit () =
  let p = Policy.move_limit ~threshold:2 ~n_pages:8 () in
  let decide () = p.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Store in
  Alcotest.(check bool) "local before moves" true (decide () = Protocol.Place_local);
  p.Policy.note (Policy.Page_moved { lpage = 0 });
  p.Policy.note (Policy.Page_moved { lpage = 0 });
  Alcotest.(check bool) "local at threshold" true (decide () = Protocol.Place_local);
  p.Policy.note (Policy.Page_moved { lpage = 0 });
  Alcotest.(check bool) "global past threshold" true (decide () = Protocol.Place_global);
  Alcotest.(check int) "one pin" 1 (p.Policy.n_pinned ());
  (* Other pages are unaffected. *)
  Alcotest.(check bool) "page 1 still local" true
    (p.Policy.decide ~lpage:1 ~cpu:0 ~access:Access.Store = Protocol.Place_local);
  (* Freeing resets history (footnote 4). *)
  p.Policy.note (Policy.Page_freed { lpage = 0 });
  Alcotest.(check bool) "local again after free" true (decide () = Protocol.Place_local);
  Alcotest.(check int) "unpinned" 0 (p.Policy.n_pinned ())

let test_policy_all_global_never_pin () =
  let g = Policy.all_global () and l = Policy.never_pin () in
  for lpage = 0 to 3 do
    Alcotest.(check bool) "all-global" true
      (g.Policy.decide ~lpage ~cpu:1 ~access:Access.Load = Protocol.Place_global);
    Alcotest.(check bool) "never-pin" true
      (l.Policy.decide ~lpage ~cpu:1 ~access:Access.Store = Protocol.Place_local)
  done;
  (* Move notifications never change their answers. *)
  l.Policy.note (Policy.Page_moved { lpage = 0 });
  Alcotest.(check bool) "never-pin ignores moves" true
    (l.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Store = Protocol.Place_local)

let test_policy_random_sticky () =
  let prng = Numa_util.Prng.create ~seed:3L in
  let p = Policy.random ~prng ~p_global:0.5 ~n_pages:64 in
  for lpage = 0 to 63 do
    let first = p.Policy.decide ~lpage ~cpu:0 ~access:Access.Load in
    for _ = 1 to 5 do
      Alcotest.(check bool) "sticky" true
        (p.Policy.decide ~lpage ~cpu:0 ~access:Access.Load = first)
    done
  done;
  let pins = p.Policy.n_pinned () in
  Alcotest.(check bool) "roughly half global" true (pins > 10 && pins < 54)

let test_policy_reconsider_expires () =
  let now = ref 0. in
  let p =
    Policy.reconsider ~threshold:1 ~window_ns:1000. ~now:(fun () -> !now) ~n_pages:4 ()
  in
  p.Policy.note (Policy.Page_moved { lpage = 0 });
  p.Policy.note (Policy.Page_moved { lpage = 0 });
  Alcotest.(check bool) "pinned" true
    (p.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Store = Protocol.Place_global);
  now := 500.;
  Alcotest.(check bool) "still pinned inside window" true
    (p.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Store = Protocol.Place_global);
  now := 2000.;
  Alcotest.(check bool) "unpinned after window" true
    (p.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Store = Protocol.Place_local);
  Alcotest.(check int) "no longer pinned" 0 (p.Policy.n_pinned ())

(* Regression (footnote 4): random's sticky assignment must be forgotten
   when the page is freed, like move_limit forgets its move count. *)
let test_policy_random_forgets_on_free () =
  let prng = Numa_util.Prng.create ~seed:5L in
  let p = Policy.random ~prng ~p_global:1.0 ~n_pages:4 in
  Alcotest.(check bool) "assigned global" true
    (p.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Load = Protocol.Place_global);
  Alcotest.(check int) "counted as pinned" 1 (p.Policy.n_pinned ());
  p.Policy.note (Policy.Page_freed { lpage = 0 });
  Alcotest.(check int) "assignment forgotten on free" 0 (p.Policy.n_pinned ());
  Alcotest.(check bool) "recycled page gets a fresh flip" true
    (p.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Load = Protocol.Place_global);
  Alcotest.(check int) "re-counted by the fresh flip" 1 (p.Policy.n_pinned ())

let test_policy_decay_unpins () =
  let now = ref 0. in
  let p =
    Policy.decay ~threshold:1. ~half_life_ns:1000. ~now:(fun () -> !now) ~n_pages:4 ()
  in
  p.Policy.note (Policy.Page_moved { lpage = 0 });
  p.Policy.note (Policy.Page_moved { lpage = 0 });
  Alcotest.(check bool) "pinned while the score is hot" true
    (p.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Store = Protocol.Place_global);
  Alcotest.(check int) "one pin" 1 (p.Policy.n_pinned ());
  Alcotest.(check (list int)) "nothing expired while hot" [] (p.Policy.expired_pins ());
  (* Three half-lives: the score leaks from 2 to 0.25, under the threshold. *)
  now := 3000.;
  Alcotest.(check (list int)) "scan reports the cooled pin" [ 0 ] (p.Policy.expired_pins ());
  Alcotest.(check bool) "fresh fault decides LOCAL again" true
    (p.Policy.decide ~lpage:0 ~cpu:0 ~access:Access.Store = Protocol.Place_local);
  Alcotest.(check int) "unpinned" 0 (p.Policy.n_pinned ());
  (* A free zeroes the score outright, hot or not. *)
  p.Policy.note (Policy.Page_moved { lpage = 1 });
  p.Policy.note (Policy.Page_moved { lpage = 1 });
  p.Policy.note (Policy.Page_freed { lpage = 1 });
  Alcotest.(check bool) "freed page starts cold" true
    (p.Policy.decide ~lpage:1 ~cpu:0 ~access:Access.Store = Protocol.Place_local)

let test_policy_bandwidth_aware_stripe () =
  (* On a striped machine the shared level of lpage lives on node
     [lpage mod cpu_nodes]: the policy should serve near stripes globally
     and cache far ones locally. *)
  let topo = Config.topology (Config.butterfly ~n_cpus:4 ()) in
  let pressure = ref (fun ~node:_ -> 0.) in
  let p =
    Policy.bandwidth_aware ~topo ~pressure:(fun ~node -> !pressure ~node) ~n_pages:16 ()
  in
  Alcotest.(check bool) "own stripe served globally" true
    (p.Policy.decide ~lpage:5 ~cpu:1 ~access:Access.Load = Protocol.Place_global);
  Alcotest.(check bool) "far stripe cached locally" true
    (p.Policy.decide ~lpage:6 ~cpu:1 ~access:Access.Load = Protocol.Place_local);
  Alcotest.(check int) "cheap global answers are not pins" 0 (p.Policy.n_pinned ());
  (* A full local pool flips the comparison: LOCAL would only fall back. *)
  pressure := (fun ~node:_ -> 1.0);
  Alcotest.(check bool) "full pool pushes far stripes global too" true
    (p.Policy.decide ~lpage:6 ~cpu:1 ~access:Access.Load = Protocol.Place_global);
  pressure := (fun ~node:_ -> 0.);
  (* The move-limit backbone still pins ping-ponged pages. *)
  for _ = 1 to 5 do
    p.Policy.note (Policy.Page_moved { lpage = 9 })
  done;
  Alcotest.(check bool) "past threshold pins" true
    (p.Policy.decide ~lpage:9 ~cpu:1 ~access:Access.Store = Protocol.Place_global);
  Alcotest.(check int) "pinned" 1 (p.Policy.n_pinned ())

let test_policy_bandwidth_aware_slow_link () =
  (* Two nodes where each remote fetch is marginally CHEAPER than a local
     one (synthetic, so GLOBAL starts ahead by the same margin in both
     directions) and only the directed link bandwidths differ. Whatever
     separates the two placements is then the link surcharge alone. *)
  let m v = Array.make_matrix 2 2 v in
  let fetch = m 100. in
  fetch.(0).(1) <- 99.;
  fetch.(1).(0) <- 99.;
  let links = m 0. in
  links.(0).(1) <- 0.001 (* 1000 ns of queueing per word toward node 1 *);
  links.(1).(0) <- 10. (* a tenth of a nanosecond toward node 0 *);
  let topo =
    {
      Topo.name = "two-node";
      cpu_nodes = 2;
      mem_node = None;
      pool_pages = [| 8; 8 |];
      fetch_ns = fetch;
      store_ns = m 100.;
      link_words_per_ns = Some links;
    }
  in
  (match Topo.validate topo with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "test topology invalid: %s" e);
  let p = Policy.bandwidth_aware ~topo ~pressure:(fun ~node:_ -> 0.) ~n_pages:4 () in
  Alcotest.(check bool) "slow link to the stripe home forces LOCAL" true
    (p.Policy.decide ~lpage:1 ~cpu:0 ~access:Access.Load = Protocol.Place_local);
  Alcotest.(check bool) "fast link leaves GLOBAL competitive" true
    (p.Policy.decide ~lpage:0 ~cpu:1 ~access:Access.Load = Protocol.Place_global)

let test_policy_migrate_threads_hints () =
  let topo = Config.topology (Config.butterfly ~n_cpus:4 ()) in
  let p = Policy.migrate_threads ~threshold:1 ~topo ~n_pages:16 () in
  Alcotest.(check (list (pair int int))) "no hints initially" [] (p.Policy.migrate_hints ());
  p.Policy.note (Policy.Page_moved { lpage = 2 });
  p.Policy.note (Policy.Page_moved { lpage = 2 });
  Alcotest.(check bool) "pins past threshold" true
    (p.Policy.decide ~lpage:2 ~cpu:0 ~access:Access.Store = Protocol.Place_global);
  Alcotest.(check (list (pair int int)))
    "hint points from the faulting cpu to the stripe home" [ (0, 2) ]
    (p.Policy.migrate_hints ());
  Alcotest.(check (list (pair int int))) "hints drain on read" [] (p.Policy.migrate_hints ());
  (* A page whose stripe home IS the faulting cpu yields no hint. *)
  p.Policy.note (Policy.Page_moved { lpage = 4 });
  p.Policy.note (Policy.Page_moved { lpage = 4 });
  Alcotest.(check bool) "still pins" true
    (p.Policy.decide ~lpage:4 ~cpu:0 ~access:Access.Store = Protocol.Place_global);
  Alcotest.(check (list (pair int int))) "no hint when already home" []
    (p.Policy.migrate_hints ());
  (* On a board machine the shared home is no CPU's memory: never hint. *)
  let ace_topo = Config.topology (small_config ()) in
  let q = Policy.migrate_threads ~threshold:1 ~topo:ace_topo ~n_pages:16 () in
  q.Policy.note (Policy.Page_moved { lpage = 0 });
  q.Policy.note (Policy.Page_moved { lpage = 0 });
  Alcotest.(check bool) "pins on the ACE too" true
    (q.Policy.decide ~lpage:0 ~cpu:1 ~access:Access.Store = Protocol.Place_global);
  Alcotest.(check (list (pair int int))) "board home yields no hint" []
    (q.Policy.migrate_hints ())

(* Satellite: the reconsider expiry path end-to-end through the pmap
   layer — pin, let the window elapse, let the periodic scan drop the
   mappings (emitting Page_unpin + Reconsider_scan), and watch the fresh
   fault re-decide LOCAL. *)
let test_reconsider_expiry_end_to_end () =
  let config = small_config () in
  let now = ref 0. in
  let policy =
    Policy.reconsider ~threshold:0 ~window_ns:1000.
      ~now:(fun () -> !now)
      ~n_pages:config.Config.global_pages ()
  in
  let obs = Numa_obs.Hub.create () in
  let unpins = ref 0 and scans = ref [] in
  Numa_obs.Hub.attach obs ~name:"watch" (fun ~ts:_ ev ->
      match ev with
      | Numa_obs.Event.Page_unpin _ -> incr unpins
      | Numa_obs.Event.Reconsider_scan { expired } -> scans := expired :: !scans
      | _ -> ());
  let mgr = Pmap_manager.create ~obs ~config ~policy () in
  let ops = Pmap_manager.ops mgr in
  let pmap = ops.Numa_vm.Pmap_intf.pmap_create ~name:"t" in
  let enter ~cpu =
    ops.Numa_vm.Pmap_intf.enter ~pmap ~cpu ~vpage:0 ~lpage:0
      ~min_prot:(Prot.of_access Access.Store) ~max_prot:Prot.Read_write
  in
  ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter ~cpu:0;
  enter ~cpu:1 (* the migration counts move #1, putting it over threshold 0 *);
  enter ~cpu:0 (* ... so this fault pins the page in global memory *);
  Alcotest.(check int) "pinned" 1 (policy.Policy.n_pinned ());
  (match Numa_manager.state_of (Pmap_manager.manager mgr) ~lpage:0 with
  | Numa_manager.Global_writable -> ()
  | st -> Alcotest.failf "expected global-writable, got %a" Numa_manager.pp_state st);
  now := 500.;
  Alcotest.(check int) "scan inside the window drops nothing" 0
    (Pmap_manager.reconsider_scan mgr);
  Alcotest.(check bool) "still mapped" true
    (ops.Numa_vm.Pmap_intf.resident ~pmap ~cpu:0 ~vpage:0 <> None);
  now := 2000.;
  Alcotest.(check int) "scan after the window drops the pin" 1
    (Pmap_manager.reconsider_scan mgr);
  Alcotest.(check int) "one Page_unpin" 1 !unpins;
  Alcotest.(check (list int)) "one Reconsider_scan totalling it" [ 1 ] !scans;
  Alcotest.(check bool) "mapping dropped on cpu 0" true
    (ops.Numa_vm.Pmap_intf.resident ~pmap ~cpu:0 ~vpage:0 = None);
  Alcotest.(check bool) "mapping dropped on cpu 1" true
    (ops.Numa_vm.Pmap_intf.resident ~pmap ~cpu:1 ~vpage:0 = None);
  (* The forced fresh fault re-decides LOCAL and the page leaves global. *)
  enter ~cpu:0;
  Alcotest.(check int) "no pin after re-decision" 0 (policy.Policy.n_pinned ());
  (match Numa_manager.state_of (Pmap_manager.manager mgr) ~lpage:0 with
  | Numa_manager.Local_writable 0 -> ()
  | st -> Alcotest.failf "expected local-writable(0), got %a" Numa_manager.pp_state st);
  check_mgr mgr

(* --- manager transitions ------------------------------------------------- *)

let test_first_touch_read_replicates () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:1 ~lpage:0 ~access:Access.Load;
  check_state env ~lpage:0 Numa_manager.Read_only;
  Alcotest.(check (list int)) "replica on reader" [ 1 ]
    (Numa_manager.replica_nodes (Pmap_manager.manager env.mgr) ~lpage:0);
  check_inv env

let test_first_touch_write_owns () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:2 ~lpage:0 ~access:Access.Store;
  check_state env ~lpage:0 (Numa_manager.Local_writable 2);
  check_inv env

let test_replication_across_readers () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  for cpu = 0 to 3 do
    enter env ~cpu ~lpage:0 ~access:Access.Load
  done;
  check_state env ~lpage:0 Numa_manager.Read_only;
  Alcotest.(check int) "4 replicas" 4
    (List.length (Numa_manager.replica_nodes (Pmap_manager.manager env.mgr) ~lpage:0));
  check_inv env

let test_write_invalidates_replicas () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  for cpu = 0 to 3 do
    enter env ~cpu ~lpage:0 ~access:Access.Load
  done;
  enter env ~cpu:1 ~lpage:0 ~access:Access.Store;
  check_state env ~lpage:0 (Numa_manager.Local_writable 1);
  Alcotest.(check (list int)) "only writer holds a copy" [ 1 ]
    (Numa_manager.replica_nodes (Pmap_manager.manager env.mgr) ~lpage:0);
  (* Readers' mappings were shot down. *)
  Alcotest.(check bool) "reader 0 unmapped" true
    (env.ops.Numa_vm.Pmap_intf.resident ~pmap:env.pmap ~cpu:0 ~vpage:0 = None);
  check_inv env

let test_write_write_migration_counts_moves () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  enter env ~cpu:1 ~lpage:0 ~access:Access.Store;
  check_state env ~lpage:0 (Numa_manager.Local_writable 1);
  Alcotest.(check int) "one move" 1
    (Numa_manager.moves_of (Pmap_manager.manager env.mgr) ~lpage:0);
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  Alcotest.(check int) "two moves" 2
    (Numa_manager.moves_of (Pmap_manager.manager env.mgr) ~lpage:0);
  check_inv env

let test_read_of_written_page_moves_to_read_only () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  enter env ~cpu:3 ~lpage:0 ~access:Access.Load;
  (* Table 1, LOCAL x local-writable-other: sync&flush other, copy, RO. *)
  check_state env ~lpage:0 Numa_manager.Read_only;
  Alcotest.(check (list int)) "reader holds the only copy" [ 3 ]
    (Numa_manager.replica_nodes (Pmap_manager.manager env.mgr) ~lpage:0);
  Alcotest.(check int) "counts as a move" 1
    (Numa_manager.moves_of (Pmap_manager.manager env.mgr) ~lpage:0);
  check_inv env

let test_pinning_after_threshold () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  (* Ping-pong writes; with the default threshold (4) the fifth move takes
     the count past the threshold and the next fault pins the page. *)
  for round = 0 to 6 do
    enter env ~cpu:(round mod 2) ~lpage:0 ~access:Access.Store
  done;
  check_state env ~lpage:0 Numa_manager.Global_writable;
  Alcotest.(check int) "policy pinned it" 1 ((Pmap_manager.policy env.mgr).Policy.n_pinned ());
  (* Further requests stay global with no new moves. *)
  let before = Numa_manager.moves_of (Pmap_manager.manager env.mgr) ~lpage:0 in
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  enter env ~cpu:1 ~lpage:0 ~access:Access.Load;
  Alcotest.(check int) "no more moves once pinned" before
    (Numa_manager.moves_of (Pmap_manager.manager env.mgr) ~lpage:0);
  check_state env ~lpage:0 Numa_manager.Global_writable;
  check_inv env

let test_sole_replica_write_upgrade_is_free () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:2 ~lpage:0 ~access:Access.Load;
  enter env ~cpu:2 ~lpage:0 ~access:Access.Store;
  (* Private read-then-write: no move counted (nothing left another node). *)
  Alcotest.(check int) "no moves" 0
    (Numa_manager.moves_of (Pmap_manager.manager env.mgr) ~lpage:0);
  check_state env ~lpage:0 (Numa_manager.Local_writable 2);
  check_inv env

let test_zero_fill_is_lazy_and_local () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:5;
  let stats = Pmap_manager.stats env.mgr in
  Alcotest.(check int) "no zeroing yet" 0
    (stats.Numa_stats.zero_fills_local + stats.Numa_stats.zero_fills_global);
  enter env ~cpu:0 ~lpage:5 ~access:Access.Store;
  Alcotest.(check int) "zeroed locally at first touch" 1 stats.Numa_stats.zero_fills_local;
  Alcotest.(check int) "never zeroed in global" 0 stats.Numa_stats.zero_fills_global

let test_local_memory_exhaustion_falls_back_global () =
  (* One local frame per node: the second distinct page placed on a node
     must fall back to global. *)
  let env = make_env ~config:(small_config ~local_pages:1 ()) () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:1;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  check_state env ~lpage:0 (Numa_manager.Local_writable 0);
  enter env ~cpu:0 ~lpage:1 ~access:Access.Store;
  check_state env ~lpage:1 Numa_manager.Global_writable;
  let stats = Pmap_manager.stats env.mgr in
  Alcotest.(check int) "fallback recorded" 1 stats.Numa_stats.local_fallbacks;
  check_inv env

let test_reset_page_forgets_everything () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  enter env ~cpu:1 ~lpage:0 ~access:Access.Store;
  let tag = env.ops.Numa_vm.Pmap_intf.free_page ~lpage:0 in
  check_state env ~lpage:0 Numa_manager.Untouched;
  Alcotest.(check int) "moves reset" 0
    (Numa_manager.moves_of (Pmap_manager.manager env.mgr) ~lpage:0);
  Alcotest.(check (list int)) "replicas freed" []
    (Numa_manager.replica_nodes (Pmap_manager.manager env.mgr) ~lpage:0);
  env.ops.Numa_vm.Pmap_intf.free_page_sync tag;
  let rejected = Invalid_argument "pmap_free_page_sync: unknown or already-synced tag" in
  let sync tag () = env.ops.Numa_vm.Pmap_intf.free_page_sync tag in
  Alcotest.check_raises "tag is single-use" rejected (sync tag);
  (* Tags are checked by page: two pages' tags sync in either order. *)
  let first = env.ops.Numa_vm.Pmap_intf.free_page ~lpage:1 in
  let second = env.ops.Numa_vm.Pmap_intf.free_page ~lpage:2 in
  sync second ();
  sync first ();
  Alcotest.check_raises "a negative tag" rejected (sync (-1));
  Alcotest.check_raises "a tag never issued" rejected (sync 1_000_000);
  (* A page has one pending tag: a second free before the sync supersedes
     the first. *)
  let stale = env.ops.Numa_vm.Pmap_intf.free_page ~lpage:3 in
  let fresh = env.ops.Numa_vm.Pmap_intf.free_page ~lpage:3 in
  Alcotest.check_raises "a superseded tag" rejected (sync stale);
  sync fresh ();
  check_inv env

(* --- content movement ---------------------------------------------------- *)

let test_content_follows_protocol () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  env.ops.Numa_vm.Pmap_intf.write_slot ~pmap:env.pmap ~cpu:0 ~vpage:0 111;
  (* Another CPU writes: content must migrate through global. *)
  enter env ~cpu:1 ~lpage:0 ~access:Access.Store;
  Alcotest.(check int) "cpu1 reads what cpu0 wrote" 111
    (env.ops.Numa_vm.Pmap_intf.read_slot ~pmap:env.pmap ~cpu:1 ~vpage:0);
  env.ops.Numa_vm.Pmap_intf.write_slot ~pmap:env.pmap ~cpu:1 ~vpage:0 222;
  (* Pin it and check the final sync reached global memory. *)
  for round = 0 to 5 do
    enter env ~cpu:(round mod 2) ~lpage:0 ~access:Access.Store
  done;
  Alcotest.(check int) "global master holds latest" 222
    (env.ops.Numa_vm.Pmap_intf.extract_content ~lpage:0)

let test_install_and_extract () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.install_page ~lpage:7 ~content:4242;
  Alcotest.(check int) "extract" 4242 (env.ops.Numa_vm.Pmap_intf.extract_content ~lpage:7);
  (* First touch of installed content copies it local, not zeroes. *)
  enter env ~cpu:0 ~lpage:7 ~access:Access.Load;
  Alcotest.(check int) "reader sees installed content" 4242
    (env.ops.Numa_vm.Pmap_intf.read_slot ~pmap:env.pmap ~cpu:0 ~vpage:7)

(* --- pmap interface details ------------------------------------------------ *)

let test_min_max_protection_mapping () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  (* Read fault on a writable region: mapped read-only (provisional
     replication), so a later write must fault again. *)
  enter env ~cpu:0 ~lpage:0 ~access:Access.Load;
  (match env.ops.Numa_vm.Pmap_intf.resident ~pmap:env.pmap ~cpu:0 ~vpage:0 with
  | Some (prot, _) ->
      Alcotest.(check bool) "provisionally read-only" true (prot = Prot.Read_only)
  | None -> Alcotest.fail "not resident");
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  match env.ops.Numa_vm.Pmap_intf.resident ~pmap:env.pmap ~cpu:0 ~vpage:0 with
  | Some (prot, _) -> Alcotest.(check bool) "writable after write fault" true (prot = Prot.Read_write)
  | None -> Alcotest.fail "not resident after upgrade"

let test_protect_clamps_and_removes () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  env.ops.Numa_vm.Pmap_intf.protect ~pmap:env.pmap ~vpage:0 ~n:1 Prot.Read_only;
  (match env.ops.Numa_vm.Pmap_intf.resident ~pmap:env.pmap ~cpu:0 ~vpage:0 with
  | Some (prot, _) -> Alcotest.(check bool) "clamped to RO" true (prot = Prot.Read_only)
  | None -> Alcotest.fail "mapping should survive RO clamp");
  env.ops.Numa_vm.Pmap_intf.protect ~pmap:env.pmap ~vpage:0 ~n:1 Prot.No_access;
  Alcotest.(check bool) "no-access removes" true
    (env.ops.Numa_vm.Pmap_intf.resident ~pmap:env.pmap ~cpu:0 ~vpage:0 = None)

let test_remove_all_leaves_cache_state () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Load;
  enter env ~cpu:1 ~lpage:0 ~access:Access.Load;
  env.ops.Numa_vm.Pmap_intf.remove_all ~lpage:0;
  Alcotest.(check bool) "mappings gone" true
    (env.ops.Numa_vm.Pmap_intf.resident ~pmap:env.pmap ~cpu:0 ~vpage:0 = None);
  (* Replicas persist: pmap_remove_all is mapping-only. *)
  Alcotest.(check int) "replicas kept" 2
    (List.length (Numa_manager.replica_nodes (Pmap_manager.manager env.mgr) ~lpage:0))

let test_pragmas_override_policy () =
  let env = make_env () in
  Pmap_manager.set_pragma env.mgr ~pmap:env.pmap ~vpage:0 ~n:1
    (Some Numa_vm.Region_attr.Noncacheable);
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  check_state env ~lpage:0 Numa_manager.Global_writable;
  (* Cacheable pragma pins nothing even under ping-pong. *)
  Pmap_manager.set_pragma env.mgr ~pmap:env.pmap ~vpage:1 ~n:1
    (Some Numa_vm.Region_attr.Cacheable);
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:1;
  for round = 0 to 11 do
    env.ops.Numa_vm.Pmap_intf.enter ~pmap:env.pmap ~cpu:(round mod 2) ~vpage:1 ~lpage:1
      ~min_prot:Prot.Read_write ~max_prot:Prot.Read_write
  done;
  (match state env ~lpage:1 with
  | Numa_manager.Local_writable _ -> ()
  | st -> Alcotest.failf "cacheable page pinned: %a" Numa_manager.pp_state st);
  (* Clearing the pragma hands control back to the (now well past
     threshold) policy. *)
  Pmap_manager.set_pragma env.mgr ~pmap:env.pmap ~vpage:1 ~n:1 None;
  enter env ~cpu:0 ~lpage:1 ~access:Access.Store;
  check_state env ~lpage:1 Numa_manager.Global_writable

let test_homed_pages () =
  let env = make_env () in
  Pmap_manager.set_pragma env.mgr ~pmap:env.pmap ~vpage:0 ~n:1
    (Some (Numa_vm.Region_attr.Homed 3));
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  (* Any CPU's fault places the page in node 3's local memory. *)
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  check_state env ~lpage:0 (Numa_manager.Homed 3);
  Alcotest.(check (list int)) "single copy at the home" [ 3 ]
    (Numa_manager.replica_nodes (Pmap_manager.manager env.mgr) ~lpage:0);
  (* The non-home CPU's mapping is remote; the home CPU's is local. *)
  (match env.ops.Numa_vm.Pmap_intf.resident ~pmap:env.pmap ~cpu:0 ~vpage:0 with
  | Some (_, where) -> Alcotest.(check bool) "remote for cpu 0" true (where = Location.Remote_local)
  | None -> Alcotest.fail "cpu 0 not resident");
  enter env ~cpu:3 ~lpage:0 ~access:Access.Load;
  (match env.ops.Numa_vm.Pmap_intf.resident ~pmap:env.pmap ~cpu:3 ~vpage:0 with
  | Some (_, where) -> Alcotest.(check bool) "local for the home" true (where = Location.Local_here)
  | None -> Alcotest.fail "cpu 3 not resident");
  (* Writes through remote mappings are coherent: one physical frame. *)
  env.ops.Numa_vm.Pmap_intf.write_slot ~pmap:env.pmap ~cpu:0 ~vpage:0 555;
  Alcotest.(check int) "home reads the remote write" 555
    (env.ops.Numa_vm.Pmap_intf.read_slot ~pmap:env.pmap ~cpu:3 ~vpage:0);
  (* Ping-pong writes never move or pin the page. *)
  for round = 0 to 9 do
    enter env ~cpu:(round mod 2) ~lpage:0 ~access:Access.Store
  done;
  check_state env ~lpage:0 (Numa_manager.Homed 3);
  Alcotest.(check int) "no moves" 0
    (Numa_manager.moves_of (Pmap_manager.manager env.mgr) ~lpage:0);
  (* extract_content syncs the home frame back to global. *)
  Alcotest.(check int) "extract syncs home" 555
    (env.ops.Numa_vm.Pmap_intf.extract_content ~lpage:0);
  check_inv env;
  (* Clearing the pragma demotes the page back to policy control. *)
  Pmap_manager.set_pragma env.mgr ~pmap:env.pmap ~vpage:0 ~n:1 None;
  enter env ~cpu:1 ~lpage:0 ~access:Access.Store;
  (match state env ~lpage:0 with
  | Numa_manager.Homed _ -> Alcotest.fail "still homed after pragma cleared"
  | _ -> ());
  Alcotest.(check int) "content survives demotion" 555
    (env.ops.Numa_vm.Pmap_intf.read_slot ~pmap:env.pmap ~cpu:1 ~vpage:0);
  check_inv env

let test_homed_falls_back_when_home_full () =
  let env = make_env ~config:(small_config ~local_pages:1 ()) () in
  (* Fill node 2's only local frame. *)
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:5;
  enter env ~cpu:2 ~lpage:5 ~access:Access.Store;
  Pmap_manager.set_pragma env.mgr ~pmap:env.pmap ~vpage:0 ~n:1
    (Some (Numa_vm.Region_attr.Homed 2));
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  check_state env ~lpage:0 Numa_manager.Global_writable;
  check_inv env

let test_placement_summary () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:1;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  enter env ~cpu:0 ~lpage:1 ~access:Access.Load;
  let summary = Pmap_manager.placement_summary env.mgr in
  Alcotest.(check (option int)) "one local-writable" (Some 1)
    (List.assoc_opt "local-writable" summary);
  Alcotest.(check (option int)) "one read-only" (Some 1)
    (List.assoc_opt "read-only (replicated)" summary);
  Alcotest.(check (option int)) "rest untouched" (Some 30)
    (List.assoc_opt "untouched" summary)

let test_policy_swap_keeps_state () =
  let env = make_env () in
  env.ops.Numa_vm.Pmap_intf.zero_page ~lpage:0;
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  Pmap_manager.set_policy env.mgr (Policy.all_global ());
  (* Existing cache state intact... *)
  check_state env ~lpage:0 (Numa_manager.Local_writable 0);
  (* ...but the next fault follows the new policy. *)
  enter env ~cpu:1 ~lpage:0 ~access:Access.Store;
  check_state env ~lpage:0 Numa_manager.Global_writable;
  check_inv env

(* --- software-TLB shootdown through the protocol ------------------------ *)

let test_tlb_shootdown_on_ownership_move () =
  let env = make_env () in
  let mmu = Pmap_manager.mmu env.mgr in
  enter env ~cpu:0 ~lpage:0 ~access:Access.Store;
  (* Warm CPU 0's software TLB: the first translate fills, the second hits. *)
  (match Mmu.translate mmu ~pmap:env.pmap ~cpu:0 ~vpage:0 with
  | Some _ -> ()
  | None -> Alcotest.fail "mapping missing after the fault");
  ignore (Mmu.translate mmu ~pmap:env.pmap ~cpu:0 ~vpage:0);
  Alcotest.(check bool) "warm translation hits" true (Mmu.tlb_hits mmu >= 1);
  let before = Mmu.tlb_shootdowns mmu in
  (* A store from CPU 1 moves ownership; dropping CPU 0's mapping must also
     shoot down its cached translation. *)
  enter env ~cpu:1 ~lpage:0 ~access:Access.Store;
  Alcotest.(check bool) "shootdown counted" true (Mmu.tlb_shootdowns mmu > before);
  (* No stale fast path: the TLB agrees with the hash table. *)
  Alcotest.(check bool) "cpu 0 translation gone" true
    (Mmu.translate mmu ~pmap:env.pmap ~cpu:0 ~vpage:0 = None);
  Alcotest.(check bool) "cpu 1 translation live" true
    (Mmu.translate mmu ~pmap:env.pmap ~cpu:1 ~vpage:0 <> None);
  check_inv env

let test_tlb_shootdown_on_all_caching_cpus () =
  let env = make_env () in
  let mmu = Pmap_manager.mmu env.mgr in
  (* Three readers replicate the page; warm each reader's TLB. *)
  for cpu = 0 to 2 do
    enter env ~cpu ~lpage:0 ~access:Access.Load;
    ignore (Mmu.translate mmu ~pmap:env.pmap ~cpu ~vpage:0)
  done;
  let before = Mmu.tlb_shootdowns mmu in
  (* The writer invalidates every replica: all cached translations die. *)
  enter env ~cpu:3 ~lpage:0 ~access:Access.Store;
  Alcotest.(check bool) "at least the readers' entries shot down" true
    (Mmu.tlb_shootdowns mmu - before >= 3);
  for cpu = 0 to 2 do
    Alcotest.(check bool) "reader translation gone" true
      (Mmu.translate mmu ~pmap:env.pmap ~cpu ~vpage:0 = None)
  done;
  check_inv env

let suite =
  [
    Alcotest.test_case "move-limit policy" `Quick test_policy_move_limit;
    Alcotest.test_case "all-global / never-pin" `Quick test_policy_all_global_never_pin;
    Alcotest.test_case "random policy is sticky" `Quick test_policy_random_sticky;
    Alcotest.test_case "reconsider policy expires pins" `Quick test_policy_reconsider_expires;
    Alcotest.test_case "random policy forgets on free" `Quick
      test_policy_random_forgets_on_free;
    Alcotest.test_case "decay policy unpins as scores cool" `Quick test_policy_decay_unpins;
    Alcotest.test_case "bandwidth-aware policy on stripes" `Quick
      test_policy_bandwidth_aware_stripe;
    Alcotest.test_case "bandwidth-aware policy on a slow link" `Quick
      test_policy_bandwidth_aware_slow_link;
    Alcotest.test_case "migrate-threads policy hints" `Quick
      test_policy_migrate_threads_hints;
    Alcotest.test_case "reconsider expiry end-to-end" `Quick
      test_reconsider_expiry_end_to_end;
    Alcotest.test_case "first touch read replicates" `Quick test_first_touch_read_replicates;
    Alcotest.test_case "first touch write owns" `Quick test_first_touch_write_owns;
    Alcotest.test_case "replication across readers" `Quick test_replication_across_readers;
    Alcotest.test_case "write invalidates replicas" `Quick test_write_invalidates_replicas;
    Alcotest.test_case "write-write migration counts moves" `Quick
      test_write_write_migration_counts_moves;
    Alcotest.test_case "read of written page -> read-only" `Quick
      test_read_of_written_page_moves_to_read_only;
    Alcotest.test_case "pinning after threshold" `Quick test_pinning_after_threshold;
    Alcotest.test_case "sole-replica write upgrade is free" `Quick
      test_sole_replica_write_upgrade_is_free;
    Alcotest.test_case "zero fill lazy and local" `Quick test_zero_fill_is_lazy_and_local;
    Alcotest.test_case "local exhaustion falls back global" `Quick
      test_local_memory_exhaustion_falls_back_global;
    Alcotest.test_case "reset page forgets everything" `Quick
      test_reset_page_forgets_everything;
    Alcotest.test_case "content follows protocol" `Quick test_content_follows_protocol;
    Alcotest.test_case "install and extract content" `Quick test_install_and_extract;
    Alcotest.test_case "min/max protection mapping" `Quick test_min_max_protection_mapping;
    Alcotest.test_case "protect clamps and removes" `Quick test_protect_clamps_and_removes;
    Alcotest.test_case "remove_all leaves cache state" `Quick
      test_remove_all_leaves_cache_state;
    Alcotest.test_case "pragmas override policy" `Quick test_pragmas_override_policy;
    Alcotest.test_case "homed pages (remote references)" `Quick test_homed_pages;
    Alcotest.test_case "homed falls back when home full" `Quick
      test_homed_falls_back_when_home_full;
    Alcotest.test_case "placement summary" `Quick test_placement_summary;
    Alcotest.test_case "policy swap keeps state" `Quick test_policy_swap_keeps_state;
    Alcotest.test_case "tlb shootdown on ownership move" `Quick
      test_tlb_shootdown_on_ownership_move;
    Alcotest.test_case "tlb shootdown on all caching cpus" `Quick
      test_tlb_shootdown_on_all_caching_cpus;
  ]
