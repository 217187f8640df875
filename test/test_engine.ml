(* Unit tests for the discrete-event engine, over the flat (UMA) reference
   memory so costs are exactly predictable. *)

open Numa_machine
module Engine = Numa_sim.Engine
module Api = Numa_sim.Api
module Memory_iface = Numa_sim.Memory_iface

let config ?(n_cpus = 4) () = Config.ace ~n_cpus ()

let make ?(n_cpus = 4) ?(engine_tweak = Fun.id) ?(scheduler = Engine.Affinity) () =
  let machine = config ~n_cpus () in
  let memory = Memory_iface.flat machine in
  Engine.create (engine_tweak (Engine.default_config ~n_cpus)) ~memory ~scheduler

let test_compute_accounting () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:1 ~name:"t" (fun () -> Api.compute 5e6));
  Engine.run e;
  Alcotest.(check (float 1.)) "5 ms of user time on cpu 1" 5e6 (Engine.user_ns e ~cpu:1);
  Alcotest.(check (float 0.)) "nothing on cpu 0" 0. (Engine.user_ns e ~cpu:0);
  Alcotest.(check (float 1.)) "elapsed = the compute" 5e6 (Engine.elapsed_ns e)

let test_reference_accounting () =
  let e = make () in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"t" (fun () ->
         Api.read ~count:100 7;
         Api.write ~count:50 7));
  Engine.run e;
  (* flat memory: local speeds. *)
  Alcotest.(check (float 1.)) "user = 100 fetches + 50 stores"
    ((100. *. 650.) +. (50. *. 840.))
    (Engine.user_ns e ~cpu:0)

let test_parallel_clocks_independent () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:0 ~name:"a" (fun () -> Api.compute 10e6));
  ignore (Engine.spawn e ~cpu:1 ~name:"b" (fun () -> Api.compute 4e6));
  Engine.run e;
  Alcotest.(check (float 1.)) "total user is sum" 14e6 (Engine.total_user_ns e);
  Alcotest.(check (float 1.)) "elapsed is max" 10e6 (Engine.elapsed_ns e)

let test_two_threads_share_a_cpu () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:2 ~name:"a" (fun () -> Api.compute 10e6));
  ignore (Engine.spawn e ~cpu:2 ~name:"b" (fun () -> Api.compute 10e6));
  Engine.run e;
  (* Serialised on one clock: elapsed = 20 ms, user = 20 ms on cpu 2. *)
  Alcotest.(check (float 1.)) "user" 20e6 (Engine.user_ns e ~cpu:2);
  Alcotest.(check (float 1.)) "elapsed serialised" 20e6 (Engine.elapsed_ns e)

let test_read_value_roundtrip () =
  let e = make () in
  let seen = ref (-1) in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"t" (fun () ->
         Api.write ~value:33 4;
         seen := Api.read_value 4));
  Engine.run e;
  Alcotest.(check int) "read back" 33 !seen

let test_lock_mutual_exclusion () =
  let e = make () in
  let lock = Engine.make_lock e ~vpage:0 in
  let in_section = ref 0 and max_seen = ref 0 and entries = ref 0 in
  for cpu = 0 to 3 do
    ignore
      (Engine.spawn e ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun () ->
           for _ = 1 to 10 do
             Api.lock lock;
             incr in_section;
             incr entries;
             if !in_section > !max_seen then max_seen := !in_section;
             Api.compute 100_000.;
             decr in_section;
             Api.unlock lock
           done))
  done;
  Engine.run e;
  Alcotest.(check int) "never two holders" 1 !max_seen;
  Alcotest.(check int) "all entries" 40 !entries;
  Alcotest.(check int) "acquisitions counted" 40 lock.Numa_sim.Sync.acquisitions

let test_unlock_by_non_holder_fails () =
  let e = make () in
  let lock = Engine.make_lock e ~vpage:0 in
  ignore (Engine.spawn e ~cpu:0 ~name:"holder" (fun () ->
      Api.lock lock;
      Api.compute 1e6));
  ignore (Engine.spawn e ~cpu:1 ~name:"thief" (fun () -> Api.unlock lock));
  Alcotest.(check bool) "raises" true
    (match Engine.run e with
    | () -> false
    | exception Failure _ -> true)

let test_barrier_synchronises () =
  let e = make () in
  let barrier = Engine.make_barrier e ~vpage:0 ~parties:3 in
  let order = ref [] in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun () ->
           (* Unequal pre-barrier work. *)
           Api.compute (float_of_int (i + 1) *. 1e6);
           order := (`Before i) :: !order;
           Api.barrier barrier;
           order := (`After i) :: !order))
  done;
  Engine.run e;
  let events = List.rev !order in
  let all_befores_first =
    let rec split = function
      | `Before _ :: rest -> split rest
      | rest -> List.for_all (function `After _ -> true | `Before _ -> false) rest
    in
    split events
  in
  Alcotest.(check bool) "no thread passes early" true all_befores_first;
  Alcotest.(check int) "barrier cycled once" 1 barrier.Numa_sim.Sync.generation

let test_barrier_reusable () =
  let e = make () in
  let barrier = Engine.make_barrier e ~vpage:0 ~parties:2 in
  let rounds = ref 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 5 do
             Api.compute 1e5;
             Api.barrier barrier;
             if i = 0 then incr rounds
           done))
  done;
  Engine.run e;
  Alcotest.(check int) "five rounds" 5 !rounds;
  Alcotest.(check int) "five generations" 5 barrier.Numa_sim.Sync.generation

let test_spin_wait_burns_user_time () =
  let e = make () in
  let lock = Engine.make_lock e ~vpage:0 in
  ignore
    (Engine.spawn e ~cpu:0 ~name:"holder" (fun () ->
         Api.lock lock;
         Api.compute 5e6;
         Api.unlock lock));
  ignore
    (Engine.spawn e ~cpu:1 ~name:"waiter" (fun () ->
         Api.compute 1e5 (* let the holder get there first *);
         Api.lock lock;
         Api.unlock lock));
  Engine.run e;
  (* The waiter spun for ~4.9 ms of user time on its own CPU. *)
  Alcotest.(check bool) "waiter burned user time spinning" true
    (Engine.user_ns e ~cpu:1 > 3e6);
  Alcotest.(check bool) "polls were counted" true (lock.Numa_sim.Sync.contended_polls > 100)

let test_syscall_plain () =
  let e = make () in
  ignore
    (Engine.spawn e ~cpu:2 ~name:"t" (fun () ->
         Api.syscall ~service_ns:2e6 ();
         Api.compute 1e6));
  Engine.run e;
  Alcotest.(check (float 1.)) "service is system time" 2e6 (Engine.system_ns e ~cpu:2);
  Alcotest.(check (float 1.)) "user unaffected by the call" 1e6 (Engine.user_ns e ~cpu:2)

let test_syscall_unix_master_serialises () =
  let e =
    make
      ~engine_tweak:(fun c -> { c with Engine.unix_master = true })
      ()
  in
  for cpu = 1 to 3 do
    ignore
      (Engine.spawn e ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun () ->
           Api.syscall ~service_ns:3e6 ()))
  done;
  Engine.run e;
  (* All service time lands on cpu 0 and the calls serialise there. *)
  Alcotest.(check (float 1.)) "master does all the work" 9e6 (Engine.system_ns e ~cpu:0);
  Alcotest.(check (float 1.)) "callers accrue nothing" 0.
    (Engine.system_ns e ~cpu:1 +. Engine.user_ns e ~cpu:1);
  Alcotest.(check bool) "master clock reflects the queue" true
    (Engine.elapsed_ns e >= 9e6)

let test_single_queue_migrates () =
  let e = make ~scheduler:Engine.Single_queue () in
  (* More threads than CPUs; under a single queue they spread onto idle
     CPUs rather than stacking on their spawn CPU. *)
  let tids = ref [] in
  for i = 0 to 5 do
    tids :=
      Engine.spawn e ~cpu:0 ~name:(Printf.sprintf "t%d" i) (fun () ->
          for _ = 1 to 10 do
            Api.compute 1e6
          done)
      :: !tids
  done;
  Engine.run e;
  let cpus_used =
    List.sort_uniq compare (List.map (fun tid -> Engine.thread_cpu e ~tid) !tids)
  in
  Alcotest.(check bool) "threads spread over CPUs" true (List.length cpus_used > 1);
  (* Work conservation: total user time is exactly the computation. *)
  Alcotest.(check (float 10.)) "total user conserved" 60e6 (Engine.total_user_ns e)

let test_deadlock_detection () =
  (* A barrier that can never fill: the lone waiter spins forever; the
     event budget must stop the run. *)
  let e = make ~engine_tweak:(fun c -> { c with Engine.max_events = 10_000 }) () in
  let barrier = Engine.make_barrier e ~vpage:1 ~parties:2 in
  ignore (Engine.spawn e ~cpu:0 ~name:"lonely" (fun () -> Api.barrier barrier));
  Alcotest.(check bool) "event budget catches the livelock" true
    (match Engine.run e with
    | () -> false
    | exception Failure _ -> true
    | exception Engine.Deadlock _ -> true)

let test_migrate_rebinds_thread () =
  let e = make () in
  let tid =
    Engine.spawn e ~cpu:0 ~name:"hopper" (fun () ->
        Api.compute 1e6;
        Api.migrate ~cpu:3;
        Api.compute 2e6)
  in
  Engine.run e;
  Alcotest.(check int) "ends on target cpu" 3 (Engine.thread_cpu e ~tid);
  Alcotest.(check (float 1.)) "pre-hop work on cpu 0" 1e6 (Engine.user_ns e ~cpu:0);
  Alcotest.(check (float 1.)) "post-hop work on cpu 3" 2e6 (Engine.user_ns e ~cpu:3);
  Alcotest.(check bool) "reschedule charged as system time" true
    (Engine.system_ns e ~cpu:3 > 0.)

let test_migrate_bad_cpu_fails () =
  let e = make () in
  ignore (Engine.spawn e ~cpu:0 ~name:"bad" (fun () -> Api.migrate ~cpu:99));
  Alcotest.(check bool) "rejected" true
    (match Engine.run e with () -> false | exception Failure _ -> true)

let test_determinism () =
  let run () =
    let e = make () in
    let lock = Engine.make_lock e ~vpage:0 in
    for cpu = 0 to 3 do
      ignore
        (Engine.spawn e ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun () ->
             for _ = 1 to 20 do
               Api.with_lock lock (fun () -> Api.write ~count:3 5);
               Api.compute 1e5;
               Api.read ~count:10 6
             done))
    done;
    Engine.run e;
    (Engine.total_user_ns e, Engine.total_system_ns e, Engine.n_events e)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reruns" true (a = b)

let test_spawn_after_run_rejected () =
  let e = make () in
  ignore (Engine.spawn e ~name:"t" (fun () -> Api.compute 1e3));
  Engine.run e;
  Alcotest.check_raises "late spawn" (Invalid_argument "Engine.spawn: engine already running")
    (fun () -> ignore (Engine.spawn e ~name:"late" (fun () -> ())))

let test_empty_run () =
  let e = make () in
  Engine.run e;
  Alcotest.(check (float 0.)) "no time passes" 0. (Engine.elapsed_ns e)

(* Every op kind in one run, with the event order pinned: a contended lock
   and a barrier reused across rounds, stack-touching syscalls serialised on
   the unix master, sleeps, a migration, refs longer than [chunk_refs],
   compute longer than [compute_slice_ns], and nested deadlines that fire
   mid-refs, mid-compute and during a sleep. A scheduling change that moves
   a single dispatch moves the digest. *)
let test_mixed_ops_event_order () =
  let e = make ~engine_tweak:(fun c -> { c with Engine.unix_master = true }) () in
  let dispatches = Buffer.create 4096 in
  Numa_obs.Hub.attach (Engine.obs e) ~name:"dispatch" (fun ~ts ev ->
      match ev with
      | Numa_obs.Event.Dispatch { tid; cpu; _ } ->
          Printf.bprintf dispatches "%d %d %h\n" tid cpu ts
      | _ -> ());
  let lock = Engine.make_lock e ~vpage:0 in
  let barrier = Engine.make_barrier e ~vpage:1 ~parties:3 in
  let fired = ref [] in
  (* Threads 0-2 meet at the barrier; thread 3 shares cpu 1 with thread 1. *)
  for i = 0 to 3 do
    ignore
      (Engine.spawn e ~cpu:(if i = 3 then 1 else i) ~stack_vpage:(40 + i)
         ~name:(Printf.sprintf "w%d" i) (fun () ->
           for round = 1 to 3 do
             Api.with_lock lock (fun () ->
                 Api.write ~count:3 ~value:i 5;
                 Api.compute 1e5);
             Api.read ~count:5000 (10 + i);
             Api.syscall ~touch_stack:true ~service_ns:2e5 ();
             if i < 3 then Api.barrier barrier;
             Api.compute 5e6;
             Api.sleep_until ~ns:(float_of_int round *. 3e7)
           done;
           Api.migrate ~cpu:((i + 1) mod 4);
           Api.write ~count:100 ~value:(Api.read_value 5) 20))
  done;
  ignore
    (Engine.spawn e ~cpu:3 ~stack_vpage:44 ~name:"timers" (fun () ->
         let outer =
           Api.with_deadline ~until_ns:2e7 (fun () ->
               let inner =
                 Api.with_deadline ~until_ns:3e6 (fun () -> Api.read ~count:20_000 30)
               in
               if inner = None then fired := "inner" :: !fired;
               Api.compute 3e7)
         in
         if outer = None then fired := "outer" :: !fired;
         ignore (Api.with_deadline ~until_ns:4e7 (fun () -> Api.compute 1e5));
         if Api.with_deadline ~until_ns:5e7 (fun () -> Api.sleep_until ~ns:6e7) = None then
           fired := "sleep" :: !fired;
         Api.syscall ~touch_stack:true ~service_ns:1e5 ()));
  Engine.run e;
  Alcotest.(check (list string)) "deadlines fired" [ "sleep"; "outer"; "inner" ] !fired;
  let per_cpu f = List.init 4 (fun cpu -> Printf.sprintf "%h" (f e ~cpu)) in
  Alcotest.(check bool) "lock contended" true (lock.Numa_sim.Sync.contended_polls > 0);
  Alcotest.(check int) "barrier reused" 3 barrier.Numa_sim.Sync.generation;
  Alcotest.(check int) "n_events" 405 (Engine.n_events e);
  Alcotest.(check (list string)) "clocks"
    [ "0x1.5806f28p+26"; "0x1.57d61e8p+26"; "0x1.5806f28p+26"; "0x1.57d61e8p+26" ]
    (per_cpu Engine.clock_ns);
  Alcotest.(check (list string)) "user"
    [ "0x1.879b4p+24"; "0x1.830a5dp+25"; "0x1.90776ap+24"; "0x1.5269cap+24" ]
    (per_cpu Engine.user_ns);
  Alcotest.(check (list string)) "system"
    [ "0x1.40bccp+21"; "0x1.86ap+15"; "0x1.86ap+15"; "0x1.86ap+15" ]
    (per_cpu Engine.system_ns);
  Alcotest.(check string) "dispatch stream" "76b2b4707dee6a084448a012236108f2"
    (Digest.to_hex (Digest.string (Buffer.contents dispatches)))

(* Minor-heap words per event on three fixtures shaped like the benchmark's
   layer micro-tests: seven threads on seven CPUs issuing [Api.read] or
   [Api.sleep_until] over the flat memory, and the same threads reading a
   resident page through a full System. A turn allocates nothing of its own,
   so what is left is the op, its effect and the memory layer's own work. *)
let test_allocation_per_event () =
  let flat body () =
    let e = make ~n_cpus:7 () in
    for cpu = 0 to 6 do
      ignore (Engine.spawn e ~cpu ~name:"t" (fun () -> body cpu))
    done;
    Engine.run e;
    Engine.n_events e
  in
  let system () =
    let module System = Numa_system.System in
    let config = Config.ace ~n_cpus:7 ~local_pages_per_cpu:16 ~global_pages:64 () in
    let sys = System.create ~config () in
    let r =
      System.alloc_region sys ~name:"hit" ~kind:Numa_vm.Region_attr.Data
        ~sharing:Numa_vm.Region_attr.Declared_private ~pages:7 ()
    in
    for cpu = 0 to 6 do
      ignore
        (System.spawn sys ~cpu ~name:"t" (fun ~stack_vpage:_ ->
             for _ = 1 to 5000 do
               Api.read (r.System.base_vpage + cpu)
             done))
    done;
    (System.run sys).Numa_system.Report.n_events
  in
  let words_per_event run =
    let before = Gc.minor_words () in
    let events = run () in
    (Gc.minor_words () -. before) /. float_of_int events
  in
  List.iter
    (fun (name, run) ->
      let w = words_per_event run in
      if w > 20. then Alcotest.failf "%s: %.1f minor words per event (at most 20)" name w)
    [
      ("flat read", flat (fun cpu -> for _ = 1 to 2000 do Api.read cpu done));
      ( "flat sleep_until",
        flat (fun _ ->
            for i = 1 to 2000 do
              Api.sleep_until ~ns:(float_of_int i *. 1000.)
            done) );
      ("system read hit", system);
    ]

(* --- event queue ---------------------------------------------------------- *)

(* Direct tests of the engine's ready queue (the structure that replaced
   the generic Numa_util pairing heap on the hot path). *)

module Event_queue = Numa_sim.Event_queue

let test_event_queue_basic () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (float 0.)) "min_time of empty is infinity" infinity
    (Event_queue.min_time q);
  Alcotest.(check int) "pop of empty is -1" (-1) (Event_queue.pop_min q);
  Event_queue.add q ~time:3. ~seq:0 ~tid:30;
  Event_queue.add q ~time:1. ~seq:1 ~tid:10;
  Event_queue.add q ~time:2. ~seq:2 ~tid:20;
  Alcotest.(check int) "length" 3 (Event_queue.length q);
  Alcotest.(check (float 0.)) "min time" 1. (Event_queue.min_time q);
  Alcotest.(check int) "pop 1" 10 (Event_queue.pop_min q);
  Alcotest.(check int) "pop 2" 20 (Event_queue.pop_min q);
  Alcotest.(check int) "pop 3" 30 (Event_queue.pop_min q);
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  (* Equal times must pop in insertion (sequence) order — the property the
     engine's deterministic scheduling relies on. *)
  let q = Event_queue.create () in
  Event_queue.add q ~time:5. ~seq:0 ~tid:1;
  Event_queue.add q ~time:5. ~seq:1 ~tid:2;
  Event_queue.add q ~time:5. ~seq:2 ~tid:3;
  Alcotest.(check (list int)) "fifo on ties" [ 1; 2; 3 ]
    (List.init 3 (fun _ -> Event_queue.pop_min q))

let test_event_queue_clear () =
  let q = Event_queue.create () in
  for i = 1 to 10 do
    Event_queue.add q ~time:(float_of_int i) ~seq:i ~tid:i
  done;
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q);
  Alcotest.(check int) "length 0" 0 (Event_queue.length q)

let test_event_queue_grows () =
  (* Push past the initial capacity (64) and check nothing is lost. *)
  let q = Event_queue.create () in
  for i = 0 to 199 do
    Event_queue.add q ~time:(float_of_int (199 - i)) ~seq:i ~tid:(199 - i)
  done;
  Alcotest.(check int) "all queued" 200 (Event_queue.length q);
  for expect = 0 to 199 do
    Alcotest.(check int) "sorted drain" expect (Event_queue.pop_min q)
  done

let prop_event_queue_sorts =
  QCheck.Test.make ~name:"event queue drains in (time, seq) order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.) small_int))
    (fun entries ->
      let q = Event_queue.create () in
      List.iteri
        (fun seq (time, tid) -> Event_queue.add q ~time ~seq ~tid)
        entries;
      let rec drain acc =
        if Event_queue.is_empty q then List.rev acc
        else
          let time = Event_queue.min_time q in
          drain ((time, Event_queue.pop_min q) :: acc)
      in
      let expect =
        List.mapi (fun seq (time, tid) -> (time, seq, tid)) entries
        |> List.stable_sort (fun (t1, s1, _) (t2, s2, _) ->
               match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
        |> List.map (fun (time, _, tid) -> (time, tid))
      in
      drain [] = expect)

(* The engine's heap steps — peek at the root, look below it, replace or
   drop it — against a sorted list of (time, seq, tid). Times come from a
   small range so ties are common; every entry takes the next sequence
   number, as the engine's do. *)
type queue_op = Add of float * int | Replace of float * int | Pop | Drop | Min_tid | Next_time

let prop_event_queue_model =
  let print = function
    | Add (time, tid) -> Printf.sprintf "add %g %d" time tid
    | Replace (time, tid) -> Printf.sprintf "replace %g %d" time tid
    | Pop -> "pop"
    | Drop -> "drop"
    | Min_tid -> "min_tid"
    | Next_time -> "next_time"
  in
  let op =
    QCheck.Gen.(
      let entry f = map2 (fun time tid -> f (float_of_int time) tid) (int_bound 12) (int_bound 99) in
      frequency
        [
          (4, entry (fun time tid -> Add (time, tid)));
          (3, entry (fun time tid -> Replace (time, tid)));
          (2, return Pop);
          (1, return Drop);
          (1, return Min_tid);
          (1, return Next_time);
        ])
  in
  QCheck.Test.make ~name:"event queue steps agree with a sorted-list model" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range 0 300) op))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] and seq = ref 0 in
      let insert time tid rest =
        let e = (time, !seq, tid) in
        incr seq;
        List.merge compare [ e ] rest
      in
      let head_tid () = match !model with (_, _, tid) :: _ -> tid | [] -> -1 in
      let tail () = match !model with _ :: rest -> rest | [] -> [] in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Add (time, tid) ->
                Event_queue.add q ~time ~seq:!seq ~tid;
                model := insert time tid !model;
                true
            | Replace (time, tid) when !model = [] -> (
                match Event_queue.replace_min q ~time ~seq:!seq ~tid with
                | () -> false
                | exception Invalid_argument _ -> true)
            | Replace (time, tid) ->
                Event_queue.replace_min q ~time ~seq:!seq ~tid;
                model := insert time tid (tail ());
                true
            | Pop ->
                let expect = head_tid () in
                model := tail ();
                Event_queue.pop_min q = expect
            | Drop ->
                Event_queue.drop_min q;
                model := tail ();
                true
            | Min_tid -> Event_queue.min_tid q = head_tid ()
            | Next_time ->
                Event_queue.next_time q
                = (match !model with _ :: (time, _, _) :: _ -> time | _ -> infinity)
          in
          ok
          && Event_queue.length q = List.length !model
          && Event_queue.min_time q
             = (match !model with (time, _, _) :: _ -> time | [] -> infinity))
        ops)

let suite =
  [
    Alcotest.test_case "compute accounting" `Quick test_compute_accounting;
    Alcotest.test_case "reference accounting" `Quick test_reference_accounting;
    Alcotest.test_case "parallel clocks" `Quick test_parallel_clocks_independent;
    Alcotest.test_case "threads share a cpu" `Quick test_two_threads_share_a_cpu;
    Alcotest.test_case "read value round trip" `Quick test_read_value_roundtrip;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
    Alcotest.test_case "unlock by non-holder" `Quick test_unlock_by_non_holder_fails;
    Alcotest.test_case "barrier synchronises" `Quick test_barrier_synchronises;
    Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
    Alcotest.test_case "spin burns user time" `Quick test_spin_wait_burns_user_time;
    Alcotest.test_case "syscall plain" `Quick test_syscall_plain;
    Alcotest.test_case "syscall unix master" `Quick test_syscall_unix_master_serialises;
    Alcotest.test_case "single queue migrates" `Quick test_single_queue_migrates;
    Alcotest.test_case "stuck barrier detected" `Quick test_deadlock_detection;
    Alcotest.test_case "migrate rebinds thread" `Quick test_migrate_rebinds_thread;
    Alcotest.test_case "migrate to bad cpu fails" `Quick test_migrate_bad_cpu_fails;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "spawn after run rejected" `Quick test_spawn_after_run_rejected;
    Alcotest.test_case "empty run" `Quick test_empty_run;
    Alcotest.test_case "mixed ops event order" `Quick test_mixed_ops_event_order;
    Alcotest.test_case "allocation per event" `Quick test_allocation_per_event;
    Alcotest.test_case "event queue basic" `Quick test_event_queue_basic;
    Alcotest.test_case "event queue FIFO ties" `Quick test_event_queue_fifo_ties;
    Alcotest.test_case "event queue clear" `Quick test_event_queue_clear;
    Alcotest.test_case "event queue grows" `Quick test_event_queue_grows;
    QCheck_alcotest.to_alcotest prop_event_queue_sorts;
    QCheck_alcotest.to_alcotest prop_event_queue_model;
  ]
