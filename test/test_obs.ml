(* Tests for the observability library: the JSON emitter and parser-less
   validator, the event hub, the Chrome trace exporter, the time-series
   sampler, the per-page audit, and the zero-overhead guarantee (an
   observed run reports exactly what an unobserved run reports). *)

open Numa_machine
module System = Numa_system.System
module Report = Numa_system.Report
module Api = Numa_sim.Api
module Region_attr = Numa_vm.Region_attr
module Json = Numa_obs.Json
module Hub = Numa_obs.Hub
module Event = Numa_obs.Event
module Chrome_trace = Numa_obs.Chrome_trace
module Timeseries = Numa_obs.Timeseries
module Page_audit = Numa_obs.Page_audit

let small_config () = Config.ace ~n_cpus:4 ~local_pages_per_cpu:64 ~global_pages:128 ()

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* A two-CPU ping-pong over one writably shared page: ownership moves every
   round, so the default move-limit policy pins the page mid-run. *)
let ping_pong_system ?obs () =
  let sys = System.create ?obs ~config:(small_config ()) () in
  let data =
    System.alloc_region sys ~name:"shared" ~kind:Region_attr.Data
      ~sharing:Region_attr.Declared_write_shared ~pages:1 ()
  in
  let barrier = System.make_barrier sys ~name:"b" ~parties:2 in
  for cpu = 0 to 1 do
    ignore
      (System.spawn sys ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun ~stack_vpage:_ ->
           for _round = 1 to 8 do
             Api.write ~count:16 data.System.base_vpage;
             Api.barrier barrier
           done))
  done;
  (sys, data)

(* --- Json emitter -------------------------------------------------------- *)

let test_json_to_string () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null ]);
        ("s", Json.String "x\"y\nz");
        ("f", Json.Float 1.5);
      ]
  in
  Alcotest.(check string) "rendering"
    "{\"a\":1,\"b\":[true,null],\"s\":\"x\\\"y\\nz\",\"f\":1.5}" (Json.to_string j)

let test_json_floats () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "integral float keeps a decimal" "2.0"
    (Json.to_string (Json.Float 2.))

let test_json_validator_accepts_own_output () =
  let j =
    Json.Obj
      [
        ("nested", Json.Obj [ ("list", Json.List [ Json.Obj []; Json.List [] ]) ]);
        ("tricky", Json.String "braces { } [ ] and a quote \" inside");
      ]
  in
  let s = Json.to_string j in
  match Json.check_structure s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "rejected own output: %s" msg

let test_json_validator_rejects_broken () =
  (match Json.check_structure "{\"a\":[1,2}" with
  | Ok () -> Alcotest.fail "accepted mismatched brackets"
  | Error _ -> ());
  (match Json.check_structure "{\"a\":\"unterminated}" with
  | Ok () -> Alcotest.fail "accepted unterminated string"
  | Error _ -> ());
  match Json.check_structure "{\"a\":1}]" with
  | Ok () -> Alcotest.fail "accepted stray close"
  | Error _ -> ()

(* [s] parsed back, or the test fails naming [what]. *)
let parsed what s =
  match Json.parse s with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "%s JSON does not parse: %s" what msg

let require_keys what doc keys =
  List.iter
    (fun k -> if Json.member doc k = None then Alcotest.failf "%s misses key %S" what k)
    keys

(* --- the hub -------------------------------------------------------------- *)

let test_hub_attach_detach () =
  let h = Hub.create () in
  Alcotest.(check bool) "no sinks: disabled" false (Hub.enabled h);
  let seen = ref [] in
  Hub.attach h ~name:"probe" (fun ~ts ev -> seen := (ts, ev) :: !seen);
  Alcotest.(check bool) "sink attached: enabled" true (Hub.enabled h);
  Hub.set_clock h (fun () -> 42.);
  Hub.emit h (Event.Page_unpin { lpage = 3 });
  (match !seen with
  | [ (ts, Event.Page_unpin { lpage = 3 }) ] ->
      Alcotest.(check (float 0.)) "stamped with the clock" 42. ts
  | _ -> Alcotest.fail "event not delivered exactly once");
  Hub.detach h ~name:"probe";
  Alcotest.(check bool) "detached: disabled" false (Hub.enabled h);
  Hub.emit h (Event.Page_unpin { lpage = 4 });
  Alcotest.(check int) "no delivery after detach" 1 (List.length !seen)

(* With a clock that returns a stored float and sinks that allocate
   nothing, delivering an event allocates nothing either, to one sink or to
   two. A closure over the stamp and the event would cost 5 words. *)
let test_hub_emit_allocation () =
  let h = Hub.create () in
  let now = ref 42. and delivered = ref 0 in
  Hub.set_clock h (fun () -> !now);
  let ev = Event.Page_unpin { lpage = 3 } in
  let words_per_emit () =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      Hub.emit h ev
    done;
    (Gc.minor_words () -. before) /. 1000.
  in
  Hub.attach h ~name:"one" (fun ~ts:_ _ -> incr delivered);
  let one = words_per_emit () in
  Hub.attach h ~name:"two" (fun ~ts:_ _ -> incr delivered);
  let two = words_per_emit () in
  Alcotest.(check int) "each emit reached each sink" 3000 !delivered;
  Alcotest.(check (float 0.)) "one sink: words per emit" 0. one;
  Alcotest.(check (float 0.)) "two sinks: words per emit" 0. two

(* --- Chrome trace export -------------------------------------------------- *)

let parmult_traced () =
  let obs = Hub.create () in
  let tr = Chrome_trace.create ~n_cpus:4 in
  Chrome_trace.attach tr obs;
  let sys = System.create ~obs ~config:(Config.ace ~n_cpus:4 ()) () in
  let app =
    match Numa_apps.Registry.find "parmult" with
    | Some app -> app
    | None -> Alcotest.fail "parmult app missing from registry"
  in
  app.Numa_apps.App_sig.setup sys
    { Numa_apps.App_sig.nthreads = 4; scale = 0.1; seed = 42L };
  ignore (System.run sys);
  tr

(* The file [Chrome_trace.save] writes, read back. *)
let saved tr =
  let path = Filename.temp_file "trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome_trace.save tr path;
      In_channel.with_open_bin path In_channel.input_all)

let test_chrome_trace_is_valid_json () =
  let tr = parmult_traced () in
  Alcotest.(check bool) "recorded events" true (Chrome_trace.length tr > 0);
  let s = saved tr in
  (match Json.check_structure s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trace JSON structurally invalid: %s" msg);
  match Json.member (parsed "trace" s) "traceEvents" with
  | Some (Json.List (_ :: _ as events)) ->
      List.iter
        (fun ev -> require_keys "trace event" ev [ "ph"; "ts"; "pid"; "tid" ])
        events
  | _ -> Alcotest.fail "trace JSON has no traceEvents"

let test_chrome_trace_lane_timestamps_monotone () =
  let tr = parmult_traced () in
  let last = Hashtbl.create 8 in
  let ok = ref true in
  Chrome_trace.iter tr (fun ~ts ~lane _ev ->
      let prev =
        match Hashtbl.find_opt last lane with Some v -> v | None -> neg_infinity
      in
      if ts < prev then ok := false;
      Hashtbl.replace last lane ts);
  Alcotest.(check bool) "every lane is a monotone timeline" true !ok;
  Alcotest.(check int) "protocol lane beyond the CPUs" 4 (Chrome_trace.protocol_lane tr);
  Alcotest.(check bool) "protocol lane used" true (Hashtbl.mem last 4)

let test_hub_clock_monotone_under_bus_contention () =
  (* The engine's virtual clock must never run backwards, even when bus
     queueing pushes a chunk's start time past an earlier thread's resume
     point — the regression the vnow clamp in [Engine.turn] guards. Every
     hub timestamp is stamped from that clock, so a single probe checks
     the whole run. *)
  let config =
    { (small_config ()) with Config.bus_words_per_ns = 0.005 (* 20 MB/s: saturated *) }
  in
  let obs = Hub.create () in
  let last = ref neg_infinity and regressions = ref 0 and n = ref 0 in
  Hub.attach obs ~name:"mono" (fun ~ts _ev ->
      if ts < !last then incr regressions;
      last := ts;
      incr n);
  let sys = System.create ~obs ~config () in
  let app = Option.get (Numa_apps.Registry.find "gfetch") in
  app.Numa_apps.App_sig.setup sys
    { Numa_apps.App_sig.nthreads = 4; scale = 0.05; seed = 42L };
  let report = System.run sys in
  Alcotest.(check bool) "bus actually queued" true (report.Report.bus_delay_ns > 0.);
  Alcotest.(check bool) "events observed" true (!n > 0);
  Alcotest.(check int) "virtual clock never regressed" 0 !regressions

(* --- lock release and TLB shootdown events ---------------------------------- *)

let test_lock_events_balanced () =
  let obs = Hub.create () in
  let acquired = ref 0 and released = ref 0 in
  Hub.attach obs ~name:"locks" (fun ~ts:_ ev ->
      match ev with
      | Event.Lock_acquired _ -> incr acquired
      | Event.Lock_released { lock_id = _; cpu; tid } ->
          Alcotest.(check bool) "release names a real cpu" true (cpu >= 0 && cpu < 4);
          Alcotest.(check bool) "release names a real tid" true (tid >= 0);
          incr released
      | _ -> ());
  let e =
    Numa_sim.Engine.create ~obs
      (Numa_sim.Engine.default_config ~n_cpus:4)
      ~memory:(Numa_sim.Memory_iface.flat (small_config ()))
      ~scheduler:Numa_sim.Engine.Affinity
  in
  let lock = Numa_sim.Engine.make_lock e ~vpage:0 in
  for cpu = 0 to 3 do
    ignore
      (Numa_sim.Engine.spawn e ~cpu ~name:(Printf.sprintf "t%d" cpu) (fun () ->
           for _ = 1 to 5 do
             Api.lock lock;
             Api.compute 10_000.;
             Api.unlock lock
           done))
  done;
  Numa_sim.Engine.run e;
  Alcotest.(check int) "20 acquisitions seen" 20 !acquired;
  Alcotest.(check int) "every acquisition has a matching release" !acquired !released

let test_tlb_shootdown_events_match_report () =
  let obs = Hub.create () in
  let events = ref 0 in
  Hub.attach obs ~name:"tlb" (fun ~ts:_ ev ->
      match ev with Event.Tlb_shootdown _ -> incr events | _ -> ());
  let sys, _ = ping_pong_system ~obs () in
  let report = System.run sys in
  Alcotest.(check bool) "the ping-pong shot down translations" true
    (report.Report.tlb_shootdowns > 0);
  Alcotest.(check int) "one event per counted shootdown" report.Report.tlb_shootdowns
    !events;
  Alcotest.(check bool) "fast path used" true (report.Report.tlb_hits > 0)

(* --- time series ----------------------------------------------------------- *)

let test_timeseries_rows_and_csv () =
  let obs = Hub.create () in
  let ts = Timeseries.create () in
  Timeseries.attach ts obs;
  let sys, _ = ping_pong_system ~obs () in
  ignore (System.run sys);
  let rows = Timeseries.rows ts in
  Alcotest.(check bool) "at least one epoch" true (rows <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "alpha within [0,1]" true
        (r.Timeseries.alpha >= 0. && r.Timeseries.alpha <= 1.);
      Alcotest.(check int) "location counts partition refs" r.Timeseries.refs
        (r.Timeseries.local_refs + r.Timeseries.global_refs + r.Timeseries.remote_refs))
    rows;
  Alcotest.(check bool) "the ping-pong moved pages" true
    (List.fold_left (fun acc r -> acc + r.Timeseries.moves) 0 rows > 0);
  Alcotest.(check bool) "and pinned one" true
    (List.fold_left (fun acc r -> acc + r.Timeseries.pins) 0 rows > 0);
  let lines = String.split_on_char '\n' (String.trim (Timeseries.to_csv ts)) in
  Alcotest.(check int) "header plus one line per epoch"
    (1 + List.length rows)
    (List.length lines);
  Alcotest.(check string) "header row" Timeseries.csv_header (List.hd lines)

(* --- zero-overhead guarantee ----------------------------------------------- *)

let test_observed_run_reports_identically () =
  let run ~observe =
    let obs = Hub.create () in
    if observe then begin
      Chrome_trace.attach (Chrome_trace.create ~n_cpus:4) obs;
      Timeseries.attach (Timeseries.create ()) obs;
      Page_audit.attach (Page_audit.create ~lpage:0) obs
    end;
    let sys, _ = ping_pong_system ~obs () in
    System.run sys
  in
  let plain = run ~observe:false in
  let observed = run ~observe:true in
  Alcotest.(check string) "summary line identical" (Report.summary_line plain)
    (Report.summary_line observed);
  Alcotest.(check int) "event count identical" plain.Report.n_events
    observed.Report.n_events;
  Alcotest.(check (float 0.)) "user time identical" plain.Report.total_user_ns
    observed.Report.total_user_ns;
  Alcotest.(check (float 0.)) "system time identical" plain.Report.total_system_ns
    observed.Report.total_system_ns;
  Alcotest.(check int) "moves identical" plain.Report.numa_moves
    observed.Report.numa_moves

(* --- Json parser ---------------------------------------------------------- *)

let test_json_parse_roundtrip () =
  let doc =
    Json.Obj
      [
        ("int", Json.Int (-42));
        ("float", Json.Float 1.25);
        ("big", Json.Float 3.14159265358979);
        ("nan_becomes_null", Json.Float Float.nan);
        ("s", Json.String "quote \" slash \\ newline \n tab \t ctrl \x01 end");
        ("unicode", Json.String "caf\xc3\xa9");
        ("nested", Json.Obj [ ("l", Json.List [ Json.Bool true; Json.Null; Json.Obj [] ]) ]);
        ("empty_list", Json.List []);
      ]
  in
  let s = Json.to_string doc in
  match Json.parse s with
  | Error msg -> Alcotest.failf "own output does not parse: %s" msg
  | Ok parsed ->
      (* Non-finite floats were emitted as null, so the round trip is the
         document with that one substitution; bytes then fixpoint. *)
      Alcotest.(check string) "serialisation fixpoint" s (Json.to_string parsed);
      (match Json.member parsed "nan_becomes_null" with
      | Some Json.Null -> ()
      | _ -> Alcotest.fail "nan did not land as null");
      (match Json.member parsed "int" with
      | Some (Json.Int -42) -> ()
      | _ -> Alcotest.fail "integral literal did not parse as Int");
      (match Option.bind (Json.member parsed "float") Json.to_float with
      | Some f -> Alcotest.(check (float 1e-12)) "float value" 1.25 f
      | None -> Alcotest.fail "float member lost");
      (* Standard JSON the emitter never produces: \u escapes. *)
      match Json.parse "{\"u\": \"caf\\u00e9 \\u0041\"}" with
      | Error msg -> Alcotest.failf "unicode escape rejected: %s" msg
      | Ok j -> (
          match Json.member j "u" with
          | Some (Json.String u) -> Alcotest.(check string) "decoded" "caf\xc3\xa9 A" u
          | _ -> Alcotest.fail "unicode member lost")

let test_json_parse_rejects () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "parser accepted %S" bad
      | Error msg ->
          Alcotest.(check bool) "error mentions an offset" true
            (contains msg "offset" || contains msg "end of input"))
    [
      ""; "{"; "[1,2"; "{\"a\":}"; "{\"a\":1}]"; "tru"; "\"unterminated";
      "{\"a\" 1}"; "[1,,2]"; "nul"; "1.2.3";
    ];
  (match Json.load "/nonexistent/path/x.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file succeeded");
  (* member/to_float on the wrong shapes answer None, not an exception. *)
  Alcotest.(check bool) "member on non-object" true
    (Json.member (Json.List []) "k" = None);
  Alcotest.(check bool) "to_float on string" true (Json.to_float (Json.String "1") = None)

(* --- per-page audit --------------------------------------------------------- *)

let test_page_audit_explains_pin () =
  (* Discovery run: learn which logical page backs the ping-ponged vpage
     (deterministic, but not knowable before any fault occurs). *)
  let sys0, data0 = ping_pong_system () in
  ignore (System.run sys0);
  let lpage =
    match System.lpage_of sys0 ~vpage:data0.System.base_vpage () with
    | Some l -> l
    | None -> Alcotest.fail "shared page never materialised"
  in
  (* Audited run of the identical workload. *)
  let obs = Hub.create () in
  let audit = Page_audit.create ~lpage in
  Page_audit.attach audit obs;
  let sys, _ = ping_pong_system ~obs () in
  let report = System.run sys in
  Alcotest.(check bool) "the policy pinned a page" true (report.Report.pins >= 1);
  (match Page_audit.pin_reason audit with
  | Some reason ->
      Alcotest.(check bool) "pin reason names the move-limit rule" true
        (contains reason "move-limit")
  | None -> Alcotest.fail "audit saw no pin event");
  let text = Page_audit.explain audit in
  Alcotest.(check bool) "timeline mentions page moves" true (contains text "moved");
  Alcotest.(check bool) "verdict says pinned" true (contains text "pinned");
  Alcotest.(check bool) "timeline has many entries" true
    (List.length (String.split_on_char '\n' text) > 5)

(* --- report JSON -------------------------------------------------------------- *)

let test_page_audit_fault_narrative () =
  (* A faulted run: the audited page's story must include the machine-wide
     fault events even though they carry no lpage, so the timeline explains
     why the protocol history changed course. *)
  let obs = Hub.create () in
  let audit = Page_audit.create ~lpage:0 in
  Page_audit.attach audit obs;
  let faults =
    match Numa_faults.Plan.of_string "node-offline:1@1" with
    | Ok p -> p
    | Error msg -> Alcotest.failf "bad plan: %s" msg
  in
  let config = Numa_machine.Config.ace ~n_cpus:4 () in
  let sys = System.create ~obs ~faults ~config () in
  let app = Option.get (Numa_apps.Registry.find "imatmult") in
  app.Numa_apps.App_sig.setup sys { Numa_apps.App_sig.nthreads = 4; scale = 0.03; seed = 42L };
  ignore (System.run sys);
  let text = Page_audit.explain audit in
  Alcotest.(check bool) "timeline narrates the node loss" true
    (contains text "offline")

let test_report_json_roundtrip () =
  let sys, _ = ping_pong_system () in
  let report = System.run sys in
  let s = Json.to_string (Report.to_json report) in
  (match Json.check_structure s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "report JSON structurally invalid: %s" msg);
  require_keys "report" (parsed "report" s)
    [
      "policy";
      "n_cpus";
      "total_user_ns";
      "refs_all";
      "refs_writable_data";
      "numa";
      "tlb";
      "pins";
      "placement";
      "bus_words";
    ];
  (* Counters the text report prints must round-trip into the JSON. *)
  Alcotest.(check bool) "moves round-trip" true
    (contains s (Printf.sprintf "\"moves\":%d" report.Report.numa_moves));
  Alcotest.(check bool) "pins round-trip" true
    (contains s (Printf.sprintf "\"pins\":%d" report.Report.pins));
  Alcotest.(check bool) "enters round-trip" true
    (contains s (Printf.sprintf "\"enters\":%d" report.Report.numa_enters));
  Alcotest.(check bool) "policy name round-trips" true
    (contains s (Printf.sprintf "\"policy\":%S" report.Report.policy_name))

(* --- streaming save and the float/string fast paths ------------------------ *)

(* One of every Event.t constructor. Strings carry a quote, a backslash, a
   newline and a control character; floats cover -0.0, fractions, values
   at and beyond 1e15, nan and both infinities. *)
let every_event =
  let s = "q\"b\\n\nc\001" in
  let f = [| -0.0; 0.1; 1e15; -3.7e19; Float.nan; Float.infinity; Float.neg_infinity |] in
  let fl i = f.(i mod Array.length f) in
  Event.
    [
      Fault_resolved { cpu = 0; vpage = 1; lpage = 2; write = true; state = s };
      Policy_decision { lpage = 2; cpu = 1; global = false; reason = s };
      Page_move { lpage = 2; to_node = 1; moves = 3 };
      Page_pin { lpage = 2; cpu = 1; reason = s };
      Page_unpin { lpage = 2 };
      Replica_create { lpage = 2; node = 0 };
      Replica_flush { lpage = 2; node = 0 };
      Sync_to_global { lpage = 2; node = 1 };
      Zero_fill { lpage = 2; node = Some 1 };
      Zero_fill { lpage = 3; node = None };
      Local_fallback { lpage = 2; cpu = 0 };
      Page_freed { lpage = 2; moves = 4 };
      Refs { cpu = 1; n = 16; write = false; loc = Remote; node = 0 };
      Bus_queued { cpu = 0; words = 8; delay_ns = fl 0 };
      Lock_acquired { lock_id = 1; cpu = 0; tid = 2 };
      Lock_contended { lock_id = 1; cpu = 1; tid = 3 };
      Lock_released { lock_id = 1; cpu = 0; tid = 2 };
      Dispatch { tid = 2; cpu = 0; name = s };
      Syscall { tid = 2; cpu = 0; service_ns = fl 1 };
      Tlb_shootdown { cpu = 1; vpage = 1; lpage = 2 };
      Thread_migrated { tid = 2; from_cpu = 0; to_cpu = 1 };
      Reconsider_scan { expired = 2 };
      Fault_injected { kind = s; detail = s };
      Node_offline { node = 1 };
      Node_online { node = 1 };
      Node_drained { node = 1; pages = 5; threads = 1 };
      Link_degraded { src = 0; dst = 1; factor = fl 2 };
      Invariant_checked { violations = 0 };
      Out_of_memory { cpu = 0; vpage = 9 };
      Page_in { lpage = 2 };
      Page_evicted { lpage = 2; dirty = true };
      Writeback_started { lpage = 2 };
      Writeback_done { lpage = 2; redirtied = false };
      Pt_walk { cpu = 0; vpage = 1; lpage = 2; levels = 3; ns = fl 3 };
      Pt_shootdown { cpu = 0; vpage = 1; lpage = 2; node = 1 };
      Pt_replica_create { pmap = 0; node = 1; frames = 3 };
      Pt_replica_drop { pmap = 0; node = 1 };
      Request_arrived { client = 7; key = 8; worker = 1 };
      Request_served { client = 7; key = 8; cpu = 1; queue_ns = fl 4; service_ns = fl 5 };
      Request_timeout { client = 7; key = 8; cpu = 1; attempt = 0 };
      Request_retry { client = 7; key = 8; cpu = 1; attempt = 1; backoff_ns = fl 6 };
      Request_hedged { client = 7; key = 8; cpu = 1 };
      Request_shed { client = 7; key = 8; worker = 1 };
      Breaker_transition { worker = 1; from_state = s; to_state = "open" };
      Shard_failover { worker = 1; from_cpu = 1; to_cpu = 0 };
    ]

(* Stamps that repeat the way one engine turn's events do. From 0.0, run r
   of 1 + r mod 5 events shares one stamp, r * 1.25, so stamps alternate
   between integral and fractional; every fourth run goes back to the stamp
   of two runs before. *)
let repeating_stamps ~runs =
  List.concat
    (List.init runs (fun r ->
         let r' = if r mod 4 = 3 then r - 2 else r in
         List.init (1 + (r mod 5)) (fun _ -> float_of_int r' *. 1.25)))

let test_chrome_trace_save_streams_same_bytes () =
  let same what tr =
    Alcotest.(check bool) what true (String.equal (Trace_oracle.render tr) (saved tr))
  in
  let tr = Chrome_trace.create ~n_cpus:2 in
  Alcotest.(check string) "empty trace" (Trace_oracle.render tr) (saved tr);
  (* Enough rounds to flush the buffer many times over. *)
  for round = 0 to 399 do
    List.iteri
      (fun i ev ->
        let ts = [| 0.5; 1e15; 2.5e17 |].(i mod 3) +. float_of_int round in
        Chrome_trace.record tr ~ts ev)
      every_event
  done;
  Alcotest.(check bool) "several buffers' worth" true (String.length (saved tr) > 4 * 65536);
  same "same bytes as the whole document" tr;
  let tr = Chrome_trace.create ~n_cpus:2 in
  let events = Array.of_list every_event in
  List.iteri
    (fun i ts -> Chrome_trace.record tr ~ts events.(i mod Array.length events))
    (repeating_stamps ~runs:200);
  let stamps = ref [] in
  Chrome_trace.iter tr (fun ~ts ~lane:_ _ -> stamps := ts :: !stamps);
  let s = Array.of_list (List.rev !stamps) in
  let some p = List.exists p (List.init (Array.length s - 2) (fun i -> i + 2)) in
  Alcotest.(check bool) "the pattern starts at 0.0" true (Int64.bits_of_float s.(0) = 0L);
  Alcotest.(check bool) "a stamp repeats" true (some (fun i -> s.(i) = s.(i - 1)));
  Alcotest.(check bool) "a stamp recurs after a different one" true
    (some (fun i -> s.(i) <> s.(i - 1) && s.(i) = s.(i - 2)));
  Alcotest.(check bool) "integral and fractional stamps" true
    (some (fun i -> Float.is_integer s.(i)) && some (fun i -> not (Float.is_integer s.(i))));
  same "repeating stamps, same bytes" tr;
  let tr = Chrome_trace.create ~n_cpus:2 in
  Chrome_trace.record tr ~ts:Float.nan (Event.Page_unpin { lpage = 1 });
  Chrome_trace.record tr ~ts:0. (Event.Local_fallback { lpage = 1; cpu = 0 });
  Alcotest.(check string) "a nan first stamp" (Trace_oracle.render tr) (saved tr)

(* A nan stamp cannot move a lane's clock: it takes the lane's high-water
   mark, and the stamps after it clamp against that mark as usual. *)
let test_chrome_trace_nan_stamp_keeps_lane () =
  let tr = Chrome_trace.create ~n_cpus:2 in
  List.iter
    (fun ts -> Chrome_trace.record tr ~ts (Event.Local_fallback { lpage = 1; cpu = 0 }))
    [ 1.0; Float.nan; 5.0; 9.0 ];
  let stamps = ref [] in
  Chrome_trace.iter tr (fun ~ts ~lane:_ _ -> stamps := ts :: !stamps);
  Alcotest.(check (list (float 0.))) "lane reads on past the nan" [ 1.0; 1.0; 5.0; 9.0 ]
    (List.rev !stamps)

(* Building each event's tree, as [Trace_oracle] does, costs about 100
   minor words per event. The direct writers allocate only the box of each
   new stamp passed to [Json.add_float]: 2 words per distinct stamp. One
   trace has short decimal stamps; the other has virtual-time sums with
   more than 12 significant digits, the kind [Json.add_float] prints
   without printf. *)
let test_chrome_trace_save_allocation () =
  let bounded what stamps =
    let tr = Chrome_trace.create ~n_cpus:4 in
    List.iteri
      (fun i ts ->
        let cpu = i mod 4 in
        Chrome_trace.record tr ~ts
          (if i mod 2 = 0 then Event.Refs { cpu; n = i; write = false; loc = Local; node = 0 }
           else Event.Dispatch { tid = i; cpu; name = "worker" }))
      stamps;
    Alcotest.(check int) (what ^ ": 10,000 events") 10_000 (Chrome_trace.length tr);
    let path = Filename.temp_file "trace" ".json" in
    let before = Gc.minor_words () in
    Chrome_trace.save tr path;
    let words = Gc.minor_words () -. before in
    Sys.remove path;
    if words > 10_000. then
      Alcotest.failf "%s: save allocated %.2f minor words per event (at most 1)" what
        (words /. 10_000.)
  in
  bounded "short decimal stamps"
    (List.filteri (fun i _ -> i < 10_000) (repeating_stamps ~runs:4000));
  bounded "virtual-time stamps"
    (List.init 10_000 (fun i -> 100008845.85402414 +. (float_of_int (i / 3) *. 1234.5678901)))

(* The Printf-based emitters the fast paths replace. *)
let printf_float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let printf_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | '\r' -> "\\r"
         | '\t' -> "\\t"
         | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
         | c -> String.make 1 c)
       (List.of_seq (String.to_seq s)))

(* Non-integral values with 1 <= |f| < 1e12, which [Json.add_float] prints
   without printf: a 12-digit mantissa at each decade, the midpoint between
   two such mantissas, and the midpoint below 10^(x+1), each with its two
   neighbours; exact ties in the 13th digit, n + j/8 with n of 10 or 11
   digits; each with either sign. *)
let fast_path_float =
  let open QCheck.Gen in
  let scaled d x = d /. float_of_string ("1e" ^ string_of_int (11 - x)) in
  let decade = int_range 0 11 and d12 = int_range 100_000_000_000 999_999_999_999 in
  let near g = map2 (fun f k -> [| Float.pred f; f; Float.succ f |].(k)) g (int_range 0 2) in
  map2
    (fun f neg -> if neg then -.f else f)
    (oneof
       [
         near (map2 (fun d x -> scaled (float_of_int d) x) d12 decade);
         near (map2 (fun d x -> scaled (float_of_int d +. 0.5) x) d12 decade);
         near (map (scaled 999_999_999_999.5) decade);
         map2
           (fun n j -> float_of_int n +. (float_of_int j /. 8.))
           (int_range 1_000_000_000 99_999_999_999)
           (int_range 1 7);
       ])
    bool

let prop_float_repr_matches_printf =
  (* The fast path's edges: exact 13th-digit ties (to even), decimal ties
     that the double lies just above, values that round into a 13th digit,
     and a virtual-time stamp. *)
  let fast =
    [ 12345678901.25; 1234567890.125; 1.000000000005; 12.34567890125; 999999999999.5;
      99999.99999999999; 100008845.85402414 ]
  in
  let special =
    [ 0.; -0.; 1e15; -1e15; 999999999999999.; 1e15 +. 2.; 0.1; -2.5; 1e-300; Float.nan;
      Float.infinity; Float.neg_infinity; max_float; min_float; 4503599627370496.5 ]
    @ fast @ List.map Float.neg fast
  in
  QCheck.Test.make ~name:"float_repr = Printf %.1f / %.12g" ~count:4000
    QCheck.(
      set_print (Printf.sprintf "%h")
        (oneof
           [
             oneofl special;
             float;
             map float_of_int int;
             map (fun (m, e) -> Float.ldexp (float_of_int m) e) (pair small_signed_int (int_range (-60) 60));
             make fast_path_float;
             make fast_path_float;
           ]))
    (fun f ->
      let b = Buffer.create 32 in
      Json.add_float b f;
      String.equal (Json.float_repr f) (printf_float_repr f)
      && String.equal (Buffer.contents b) (printf_float_repr f))

let prop_add_int_matches_string_of_int =
  QCheck.Test.make ~name:"add_int = string_of_int" ~count:2000
    QCheck.(oneof [ oneofl [ 0; 1; -1; 9; -9; 10; -10; min_int; max_int ]; int ])
    (fun i ->
      let b = Buffer.create 32 in
      Json.add_int b i;
      String.equal (Buffer.contents b) (string_of_int i))

let prop_escape_matches_printf =
  QCheck.Test.make ~name:"escape = per-character reference" ~count:500
    QCheck.(string_gen_of_size Gen.(0 -- 40) Gen.(oneof [ char; oneofl [ '"'; '\\'; '\n'; 'a' ] ]))
    (fun s ->
      let b = Buffer.create 64 in
      Json.add_string b s;
      String.equal (Buffer.contents b) ("\"" ^ printf_escape s ^ "\""))

let suite =
  [
    Alcotest.test_case "json rendering" `Quick test_json_to_string;
    Alcotest.test_case "json floats" `Quick test_json_floats;
    Alcotest.test_case "json validator accepts" `Quick
      test_json_validator_accepts_own_output;
    Alcotest.test_case "json validator rejects" `Quick test_json_validator_rejects_broken;
    Alcotest.test_case "hub attach/detach" `Quick test_hub_attach_detach;
    Alcotest.test_case "hub emit allocation" `Quick test_hub_emit_allocation;
    Alcotest.test_case "chrome trace valid json" `Quick test_chrome_trace_is_valid_json;
    Alcotest.test_case "chrome trace monotone lanes" `Quick
      test_chrome_trace_lane_timestamps_monotone;
    Alcotest.test_case "hub clock monotone under bus contention" `Quick
      test_hub_clock_monotone_under_bus_contention;
    Alcotest.test_case "lock acquire/release balanced" `Quick test_lock_events_balanced;
    Alcotest.test_case "tlb shootdown events match report" `Quick
      test_tlb_shootdown_events_match_report;
    Alcotest.test_case "timeseries rows and csv" `Quick test_timeseries_rows_and_csv;
    Alcotest.test_case "observed run identical" `Quick
      test_observed_run_reports_identically;
    Alcotest.test_case "page audit explains pin" `Quick test_page_audit_explains_pin;
    Alcotest.test_case "page audit narrates faults" `Quick
      test_page_audit_fault_narrative;
    Alcotest.test_case "json parse round-trip" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "json parse rejects garbage" `Quick test_json_parse_rejects;
    Alcotest.test_case "report json round-trip" `Quick test_report_json_roundtrip;
    Alcotest.test_case "chrome trace save streams the same bytes" `Quick
      test_chrome_trace_save_streams_same_bytes;
    Alcotest.test_case "chrome trace save allocation" `Quick test_chrome_trace_save_allocation;
    Alcotest.test_case "chrome trace nan stamp keeps its lane" `Quick
      test_chrome_trace_nan_stamp_keeps_lane;
    QCheck_alcotest.to_alcotest prop_float_repr_matches_printf;
    QCheck_alcotest.to_alcotest prop_add_int_matches_string_of_int;
    QCheck_alcotest.to_alcotest prop_escape_matches_printf;
  ]
