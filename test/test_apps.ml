(* Integration tests for the application programs: each runs at small
   scale on the full stack and must exhibit its characteristic placement
   behaviour. *)

module System = Numa_system.System
module Report = Numa_system.Report
module Runner = Numa_metrics.Runner
module App_sig = Numa_apps.App_sig

let small_spec ?(scale = 0.05) ?(n_cpus = 4) () =
  { Runner.default_spec with Runner.scale; n_cpus; nthreads = n_cpus }

let run ?scale ?policy name =
  let app = Option.get (Numa_apps.Registry.find name) in
  let spec = small_spec ?scale () in
  let spec = match policy with None -> spec | Some policy -> { spec with Runner.policy } in
  Runner.run app spec

let test_registry_complete () =
  Alcotest.(check int) "8 table-3 apps" 8 (List.length Numa_apps.Registry.table3);
  Alcotest.(check int) "5 table-4 apps" 5 (List.length Numa_apps.Registry.table4);
  Alcotest.(check bool) "find works" true (Numa_apps.Registry.find "fft" <> None);
  Alcotest.(check bool) "unknown rejected" true (Numa_apps.Registry.find "nope" = None);
  (* Names are unique. *)
  let names = Numa_apps.Registry.names () in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_every_app_runs_and_keeps_invariants () =
  List.iter
    (fun (app : App_sig.t) ->
      let spec = small_spec ~scale:0.02 () in
      let config = Numa_machine.Config.ace ~n_cpus:spec.Runner.n_cpus () in
      let sys = System.create ~config () in
      app.App_sig.setup sys
        { App_sig.nthreads = spec.Runner.nthreads; scale = spec.Runner.scale; seed = 1L };
      let report = System.run sys in
      (match Numa_core.Invariant.result (System.audit sys) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: invariant: %s" app.App_sig.name msg);
      Alcotest.(check bool)
        (app.App_sig.name ^ " did some work")
        true
        (report.Report.total_user_ns > 0.))
    Numa_apps.Registry.all

let test_work_independent_of_thread_count () =
  (* The evaluation method requires the same total work regardless of the
     number of threads (section 3.1): compare the reference counts of a
     1-thread and a 4-thread run. Allow a small tolerance for
     synchronisation traffic. *)
  List.iter
    (fun name ->
      let app = Option.get (Numa_apps.Registry.find name) in
      let refs_of nthreads n_cpus =
        let spec = { (small_spec ~scale:0.03 ~n_cpus ()) with Runner.nthreads } in
        let r = Runner.run app spec in
        Report.total_refs r.Report.refs_all
      in
      let one = refs_of 1 1 and four = refs_of 4 4 in
      let ratio = float_of_int four /. float_of_int (max one 1) in
      if ratio < 0.9 || ratio > 1.35 then
        Alcotest.failf "%s: work varies with threads (1->%d refs, 4->%d refs)" name one
          four)
    [ "parmult"; "imatmult"; "primes1"; "primes3"; "fft"; "plytrace" ]

let test_gfetch_is_global_and_fetch_only () =
  let r = run "gfetch" ~scale:0.5 in
  Alcotest.(check bool) "alpha ~ 0" true (r.Report.alpha_counted < 0.15);
  let c = r.Report.refs_all in
  Alcotest.(check bool) "fetch dominated" true
    (c.Report.global_reads + c.Report.local_reads
    > 10 * (c.Report.global_writes + c.Report.local_writes))

let test_parmult_barely_references () =
  let r = run "parmult" in
  let refs = Report.total_refs r.Report.refs_all in
  (* Virtually all time is computation. *)
  let ref_time_ns = float_of_int refs *. 1500. in
  Alcotest.(check bool) "references negligible" true
    (ref_time_ns < 0.05 *. r.Report.total_user_ns)

let test_imatmult_replicates_inputs () =
  let r = run "imatmult" ~scale:0.05 in
  (* Inputs A and B must be overwhelmingly local (replicated) reads. *)
  List.iter
    (fun input ->
      match List.assoc_opt input r.Report.per_region with
      | None -> Alcotest.failf "region %s missing" input
      | Some c ->
          let local = c.Report.local_reads and global = c.Report.global_reads in
          Alcotest.(check bool)
            (input ^ " mostly local")
            true
            (float_of_int local > 0.9 *. float_of_int (local + global)))
    [ "imatmult.A"; "imatmult.B" ];
  (* The output matrix is writably shared: it must have global writes. *)
  match List.assoc_opt "imatmult.C" r.Report.per_region with
  | None -> Alcotest.fail "imatmult.C missing"
  | Some c -> Alcotest.(check bool) "C went global" true (c.Report.global_writes > 0)

let test_primes_apps_agree_on_primes () =
  (* All three prime finders are driven by the same ground truth; check
     the shared count logic via primes_upto directly. *)
  let p = Numa_apps.Primes_util.primes_upto 3000 in
  Alcotest.(check int) "pi(3000)" 430 (Array.length p)

let test_primes1_stack_dominated () =
  let r = run "primes1" ~scale:0.05 in
  let stacks =
    List.filter
      (fun (name, _) -> Filename.check_suffix name ".stack")
      r.Report.per_region
  in
  let stack_refs =
    List.fold_left (fun acc (_, c) -> acc + Report.total_refs c) 0 stacks
  in
  let total = Report.total_refs r.Report.refs_all in
  Alcotest.(check bool) "most references are stack" true
    (float_of_int stack_refs > 0.8 *. float_of_int total)

let test_primes2_variants_alpha_gap () =
  let seg = run "primes2" ~scale:0.3 in
  let unseg = run "primes2-unseg" ~scale:0.3 in
  Alcotest.(check bool) "segregated nearly all local" true
    (seg.Report.alpha_counted > 0.95);
  Alcotest.(check bool) "unsegregated around 2/3 local" true
    (unseg.Report.alpha_counted > 0.5 && unseg.Report.alpha_counted < 0.85)

let test_primes3_pins_the_sieve () =
  let r = run "primes3" ~scale:0.05 in
  Alcotest.(check bool) "lots of pinned pages" true (r.Report.pins > 3);
  Alcotest.(check bool) "low alpha" true (r.Report.alpha_counted < 0.5);
  (* The pragma variant must make far fewer page moves. *)
  let rp = run "primes3-pragma" ~scale:0.05 in
  Alcotest.(check bool) "pragma cuts moves" true
    (rp.Report.numa_moves < r.Report.numa_moves)

let test_fft_private_dominated () =
  let r = run "fft" ~scale:0.02 in
  Alcotest.(check bool) "~95% local (private workspaces)" true
    (r.Report.alpha_counted > 0.9);
  (* The shared array must end up written by several CPUs (column phase). *)
  match List.assoc_opt "fft.data" r.Report.per_region with
  | None -> Alcotest.fail "fft.data missing"
  | Some c -> Alcotest.(check bool) "shared array written globally" true (c.Report.global_writes > 0)

let test_plytrace_scene_replicated () =
  let r = run "plytrace" ~scale:0.05 in
  (match List.assoc_opt "plytrace.polygons" r.Report.per_region with
  | None -> Alcotest.fail "polygons missing"
  | Some c ->
      Alcotest.(check bool) "scene reads mostly local" true
        (float_of_int c.Report.local_reads
        > 0.8 *. float_of_int (c.Report.local_reads + c.Report.global_reads)));
  Alcotest.(check bool) "high alpha overall" true (r.Report.alpha_counted > 0.85)

let test_syscall_mix_stacks_poisoned_only_with_master () =
  let app = Option.get (Numa_apps.Registry.find "syscall-mix") in
  let run_master unix_master =
    Runner.run app { (small_spec ~scale:0.1 ()) with Runner.unix_master }
  in
  let with_master = run_master true and without = run_master false in
  let stack_globals (r : Report.t) =
    List.fold_left
      (fun acc (name, c) ->
        if Filename.check_suffix name ".stack" then
          acc + c.Report.global_reads + c.Report.global_writes
        else acc)
      0 r.Report.per_region
  in
  Alcotest.(check bool) "master poisons stacks" true (stack_globals with_master > 0);
  Alcotest.(check int) "fixed kernel leaves stacks local" 0 (stack_globals without)

let test_lopsided_homed_uses_remote () =
  let plain = run "lopsided" ~scale:0.2 in
  let homed = run "lopsided-homed" ~scale:0.2 in
  let remote (r : Report.t) =
    r.Report.refs_all.Report.remote_reads + r.Report.refs_all.Report.remote_writes
  in
  Alcotest.(check int) "normal policy makes no remote refs" 0 (remote plain);
  Alcotest.(check bool) "homed buffer is read remotely" true (remote homed > 0);
  (* The hot producer (cpu 0) runs faster when its buffer is home. *)
  Alcotest.(check bool) "producer faster when homed" true
    (homed.Report.user_ns_per_cpu.(0) < plain.Report.user_ns_per_cpu.(0))

let test_rebalance_page_migration_prevents_pinning () =
  let faults = run "rebalance" ~scale:1.0 in
  let kernel = run "rebalance-migrate" ~scale:1.0 in
  Alcotest.(check bool) "fault-driven hops count moves" true (faults.Report.numa_moves > 0);
  Alcotest.(check bool) "fault-driven hops pin private pages" true (faults.Report.pins > 0);
  Alcotest.(check int) "kernel migration counts no moves" 0 kernel.Report.numa_moves;
  Alcotest.(check int) "kernel migration pins nothing" 0 kernel.Report.pins;
  Alcotest.(check bool) "kernel migration keeps everything local" true
    (kernel.Report.alpha_counted > 0.99);
  Alcotest.(check bool) "and is faster" true
    (kernel.Report.total_user_ns < faults.Report.total_user_ns)

let test_phased_reconsider_beats_move_limit () =
  let app = Option.get (Numa_apps.Registry.find "phased") in
  let spec = small_spec ~scale:1.0 () in
  let fixed = Runner.run app spec in
  let reconsider =
    Runner.run app
      {
        spec with
        Runner.policy = System.Reconsider { threshold = 4; window_ns = 20e6 };
      }
  in
  Alcotest.(check bool) "reconsideration recovers the private phase" true
    (reconsider.Report.total_user_ns < fixed.Report.total_user_ns)

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "every app runs, invariants hold" `Slow
      test_every_app_runs_and_keeps_invariants;
    Alcotest.test_case "work independent of threads" `Slow
      test_work_independent_of_thread_count;
    Alcotest.test_case "gfetch global fetch-only" `Quick test_gfetch_is_global_and_fetch_only;
    Alcotest.test_case "parmult barely references" `Quick test_parmult_barely_references;
    Alcotest.test_case "imatmult replicates inputs" `Quick test_imatmult_replicates_inputs;
    Alcotest.test_case "primes ground truth" `Quick test_primes_apps_agree_on_primes;
    Alcotest.test_case "primes1 stack dominated" `Quick test_primes1_stack_dominated;
    Alcotest.test_case "primes2 false-sharing gap" `Quick test_primes2_variants_alpha_gap;
    Alcotest.test_case "primes3 pins the sieve" `Quick test_primes3_pins_the_sieve;
    Alcotest.test_case "fft private dominated" `Quick test_fft_private_dominated;
    Alcotest.test_case "plytrace scene replicated" `Quick test_plytrace_scene_replicated;
    Alcotest.test_case "syscall-mix unix master" `Quick
      test_syscall_mix_stacks_poisoned_only_with_master;
    Alcotest.test_case "lopsided: homed uses remote" `Quick test_lopsided_homed_uses_remote;
    Alcotest.test_case "rebalance: page migration" `Quick
      test_rebalance_page_migration_prevents_pinning;
    Alcotest.test_case "phased: reconsider wins" `Quick
      test_phased_reconsider_beats_move_limit;
  ]
