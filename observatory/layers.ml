(* Per-layer micro-tests: one Bechamel test per hot-path layer, each
   timing calls into that layer's own public functions, on a fixture
   built once outside the timed loop. A test that drives the engine
   times a whole small simulation per call and divides by the events it
   ran. *)

open Bechamel
open Numa_machine
module System = Numa_system.System
module Report = Numa_system.Report
module Engine = Numa_sim.Engine
module Api = Numa_sim.Api
module Event = Numa_obs.Event
module Hub = Numa_obs.Hub
module Chrome_trace = Numa_obs.Chrome_trace

type micro = {
  name : string;
  ops_per_call : float;  (** divides the per-call time into per-op *)
  ns_per_unit : float;  (** 1 for ns, 1e6 for ms *)
  call : unit -> unit;
}

let micro ?(ops_per_call = 1.) ?(ns_per_unit = 1.) name call =
  { name; ops_per_call; ns_per_unit; call }

(* Nanoseconds per call: the OLS slope of time over run count. *)
let ns_per_call ~quota call =
  let test = Test.make ~name:"micro" (Staged.stage call) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let analysed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  Hashtbl.fold
    (fun _ r acc -> match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> acc)
    analysed nan

let config7 = Config.ace ~n_cpus:7 ()
let refs_event = Event.Refs { cpu = 0; n = 1; write = false; loc = Event.Local; node = 0 }

(* Seven threads on seven CPUs under the flat memory, each running
   [body cpu]; returns the events the engine ran. *)
let engine_events body () =
  let e =
    Engine.create (Engine.default_config ~n_cpus:7)
      ~memory:(Numa_sim.Memory_iface.flat config7)
      ~scheduler:Engine.Affinity
  in
  for cpu = 0 to 6 do
    ignore (Engine.spawn e ~cpu ~name:"t" (fun () -> body cpu))
  done;
  Engine.run e;
  Engine.n_events e

(* The same seven threads against a full System, each reading its own
   resident page: every access after the first is a TLB hit. *)
let system_events ~reads () =
  let config = Config.ace ~n_cpus:7 ~local_pages_per_cpu:16 ~global_pages:64 () in
  let sys = System.create ~config () in
  let r =
    System.alloc_region sys ~name:"hit" ~kind:Numa_vm.Region_attr.Data
      ~sharing:Numa_vm.Region_attr.Declared_private ~pages:7 ()
  in
  for cpu = 0 to 6 do
    ignore
      (System.spawn sys ~cpu ~name:"t" (fun ~stack_vpage:_ ->
           for _ = 1 to reads do
             Api.read (r.System.base_vpage + cpu)
           done))
  done;
  (System.run sys).Report.n_events

(* A whole-run fixture: call [run] once to learn its event count. *)
let per_event name run =
  let events = float_of_int (run ()) in
  micro ~ops_per_call:events name (fun () -> ignore (run ()))

let event_queue () =
  let q = Numa_sim.Event_queue.create () in
  for i = 0 to 7 do
    Numa_sim.Event_queue.add q ~time:(float_of_int i) ~seq:i ~tid:i
  done;
  (* Engine-like: the new entry is the latest, the popped one the earliest. *)
  let seq = ref 8 in
  micro "event_queue.add_pop_ns" (fun () ->
      incr seq;
      Numa_sim.Event_queue.add q ~time:(float_of_int !seq) ~seq:!seq ~tid:0;
      ignore (Numa_sim.Event_queue.pop_min q))

let mmu_hit () =
  let mmu = Mmu.create config7 in
  Mmu.enter mmu ~pmap:0 ~cpu:0 ~vpage:5 ~lpage:5 ~prot:Prot.Read_write ~phys:(Mmu.Global_frame 5);
  micro "mmu.translate_hit_ns" (fun () ->
      ignore (Sys.opaque_identity (Mmu.translate mmu ~pmap:0 ~cpu:0 ~vpage:5)))

(* Two pages that share a direct-mapped TLB slot evict each other, so
   every translation misses and refills from the forward table. *)
let mmu_miss () =
  let mmu = Mmu.create config7 in
  let slots = 1024 in
  List.iter
    (fun v -> Mmu.enter mmu ~pmap:0 ~cpu:0 ~vpage:v ~lpage:v ~prot:Prot.Read_write ~phys:(Mmu.Global_frame v))
    [ 0; slots ];
  let flip = ref 0 in
  micro "mmu.translate_miss_ns" (fun () ->
      flip := slots - !flip;
      ignore (Sys.opaque_identity (Mmu.translate mmu ~pmap:0 ~cpu:0 ~vpage:!flip)))

let pt_walk () =
  let frames = Frame_table.create config7 in
  let sink = Cost_sink.create ~n_cpus:7 in
  let pt = Pt.create ~config:config7 ~frames ~sink ~mode:(Pt.Replicated None) () in
  Pt.enter pt ~pmap:0 ~cpu:0 ~vpage:5 ~lpage:5 ~frame:None ~prot:Prot.Read_write;
  micro "pt.walk_ns" (fun () -> Pt.walk pt ~pmap:0 ~cpu:1 ~vpage:5 ~lpage:5)

let cost_sink_empty () =
  let sink = Cost_sink.create ~n_cpus:7 in
  micro "cost_sink.drain_empty_ns" (fun () -> ignore (Sys.opaque_identity (Cost_sink.drain sink ~cpu:0)))

let cost_sink_charge () =
  let sink = Cost_sink.create ~n_cpus:7 in
  micro "cost_sink.charge_drain_ns" (fun () ->
      Cost_sink.charge sink ~cpu:0 ~cat:Numa_obs.Profile.Pt_walk 650.;
      ignore (Sys.opaque_identity (Cost_sink.drain sink ~cpu:0)))

(* A read on CPU 1 replicates the page there; a write on CPU 0 flushes
   that replica and takes the page local-writable; the next read syncs it
   back. One call is two protocol requests. *)
let numa_request () =
  let frames = Frame_table.create config7 in
  let mmu = Mmu.create config7 in
  let sink = Cost_sink.create ~n_cpus:7 in
  let nm =
    Numa_core.Numa_manager.create ~config:config7 ~frames ~mmu ~sink
      ~stats:(Numa_core.Numa_stats.create ()) ()
  in
  Numa_core.Numa_manager.mark_zero_fill nm ~lpage:0;
  let request cpu access =
    ignore
      (Numa_core.Numa_manager.request nm ~lpage:0 ~cpu ~access
         ~decision:Numa_core.Protocol.Place_local)
  in
  micro ~ops_per_call:2. "numa.request_ns" (fun () ->
      request 1 Access.Load;
      request 0 Access.Store)

let hub_off () =
  let hub = Hub.create () in
  micro "hub.emit_off_ns" (fun () -> Hub.emit hub refs_event)

let hub_on () =
  let hub = Hub.create () in
  let n = ref 0 in
  Hub.attach hub ~name:"count" (fun ~ts:_ _ -> incr n);
  micro "hub.emit_on_ns" (fun () -> Hub.emit hub refs_event)

(* The recorder keeps every event, as a real trace does; start a fresh
   one now and then so the timed loop's memory stays bounded. *)
let chrome_record () =
  let tr = ref (Chrome_trace.create ~n_cpus:7) in
  micro "chrome_trace.record_ns" (fun () ->
      if Chrome_trace.length !tr >= 100_000 then tr := Chrome_trace.create ~n_cpus:7;
      Chrome_trace.record !tr ~ts:1000. refs_event)

let chrome_save ~trace_dir () =
  let n = 2000 in
  let tr = Chrome_trace.create ~n_cpus:7 in
  for i = 1 to n do
    Chrome_trace.record tr ~ts:(float_of_int i) refs_event
  done;
  let path = Filename.concat trace_dir "micro-save.json" in
  micro ~ops_per_call:(float_of_int n) "chrome_trace.save_ns_per_event" (fun () ->
      Chrome_trace.save tr path)

let profile_charge () =
  let p = Numa_obs.Profile.create ~n_cpus:7 ~n_nodes:8 ~n_pages:8192 in
  micro "profile.charge_ref_ns" (fun () ->
      Numa_obs.Profile.charge_ref p ~cpu:0 ~dst:0 ~loc:Event.Local ~lpage:5 ~tid:0 650.)

(* Serve's end state: the directory the paranoid audit sweeps and the
   report [to_json] serialises on the serve-shaped workloads. *)
let serve_end_state () =
  let sys = System.create ~config:config7 () in
  Numa_apps.Serve.app.Numa_apps.App_sig.setup sys
    { Numa_apps.App_sig.nthreads = 7; scale = 2.; seed = 42L };
  let report = System.run sys in
  (sys, report)

let all ~trace_dir () =
  let sys, report = serve_end_state () in
  [
    event_queue ();
    per_event "engine.turn_ns"
      (engine_events (fun cpu ->
           for _ = 1 to 2000 do
             Api.read cpu
           done));
    per_event "engine.sleep_until_ns"
      (engine_events (fun _ ->
           for i = 1 to 2000 do
             Api.sleep_until ~ns:(float_of_int i *. 1000.)
           done));
    per_event "system.access_hit_ns" (system_events ~reads:5000);
    mmu_hit ();
    mmu_miss ();
    pt_walk ();
    cost_sink_empty ();
    cost_sink_charge ();
    numa_request ();
    hub_off ();
    hub_on ();
    chrome_record ();
    chrome_save ~trace_dir ();
    profile_charge ();
    micro ~ns_per_unit:1e6 "invariant.audit_ms" (fun () -> ignore (System.audit sys));
    micro ~ns_per_unit:1e6 "report.to_json_ms" (fun () ->
        ignore (Numa_obs.Json.to_string (Report.to_json report)));
  ]

(* A quarter second per test keeps the seventeen tests near five seconds. *)
let measure ~trace_dir () =
  let results =
    List.map
      (fun m -> (m.name, ns_per_call ~quota:0.25 m.call /. m.ops_per_call /. m.ns_per_unit))
      (all ~trace_dir ())
  in
  (try Sys.remove (Filename.concat trace_dir "micro-save.json") with Sys_error _ -> ());
  results
