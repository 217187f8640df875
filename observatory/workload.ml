(* The four workloads and one repetition ("rep") of each.

   A rep is what a fresh child process runs: build every system of the
   workload, set its application up, run it, serialise its report, and
   (on [observed]) save its Chrome trace — each call bracketed by a span.
   The rep also checks the simulated outputs: invariant and conservation
   violations, served-request counts, the report digest, and on request
   the saved trace. Only the workload seed varies between reps of one
   run, and it reaches nothing but [App_sig.params.seed]. *)

module System = Numa_system.System
module Report = Numa_system.Report
module Json = Numa_obs.Json
module Hub = Numa_obs.Hub
module Chrome_trace = Numa_obs.Chrome_trace
module App_sig = Numa_apps.App_sig

(* The paper's three-run protocol (section 3.1): which run of an
   application a system is. *)
type role = T_numa | T_global | T_local

type system_spec = {
  label : string;
  app : App_sig.t;
  params : seed:int64 -> App_sig.params;
  config : Numa_machine.Config.t;
  policy : System.policy_spec;
  paranoid : bool;
  profiling : bool;
  pt_mode : Numa_machine.Pt.mode;
  chrome : bool;  (** attach a Chrome trace sink and save the trace *)
  role : role option;
}

type t = { name : string; why : string; systems : system_spec list }

let move_limit = System.Move_limit { threshold = 4 }

let spec ?(policy = move_limit) ?(paranoid = false) ?(profiling = false)
    ?(pt_mode = Numa_machine.Pt.Off) ?(chrome = false) ?role ?(config_tweak = Fun.id) ~label
    ~cpus ~threads ~scale app =
  {
    label;
    app;
    params = (fun ~seed -> { App_sig.nthreads = threads; scale; seed });
    config = config_tweak (Numa_machine.Config.ace ~n_cpus:cpus ());
    policy;
    paranoid;
    profiling;
    pt_mode;
    chrome;
    role;
  }

let table3 =
  {
    name = "table3";
    why =
      "the paper's Table 3 protocol on all 8 apps: batch fault, replicate and pin storm, \
       locks and barriers; set-up heavy (primes3 sieve)";
    systems =
      List.concat_map
        (fun (app : App_sig.t) ->
          let n = app.App_sig.name in
          [
            spec ~label:(n ^ ".numa") ~role:T_numa ~cpus:7 ~threads:7 ~scale:1.0 app;
            spec ~label:(n ^ ".global") ~role:T_global ~policy:System.All_global ~cpus:7
              ~threads:7 ~scale:1.0 app;
            spec ~label:(n ^ ".local") ~role:T_local ~cpus:1 ~threads:1 ~scale:1.0 app;
          ])
        Numa_apps.Registry.table3;
  }

let serve =
  {
    name = "serve";
    why =
      "open-loop KV serving at scale 10: 99.7% TLB hits, so the access hit path, effect \
       round-trip and event queue dominate";
    systems = [ spec ~label:"serve" ~cpus:7 ~threads:7 ~scale:10. Numa_apps.Serve.app ];
  }

let thrash =
  {
    name = "thrash";
    why =
      "imatmult on 2 CPUs with 12 pages and replicated page tables: 11% TLB hits, so \
       translate misses, walks, faults and pageout dominate";
    systems =
      [
        spec ~label:"imatmult" ~cpus:2 ~threads:2 ~scale:0.25
          ~pt_mode:(Numa_machine.Pt.Replicated None)
          ~config_tweak:(fun c -> { c with Numa_machine.Config.global_pages = 12 })
          Numa_apps.Imatmult.app;
      ];
  }

let observed =
  {
    name = "observed";
    why =
      "serve at scale 2 with paranoid audits, the profiler and a saved Chrome trace: the \
       cost of observing and checking";
    systems =
      [
        spec ~label:"serve" ~cpus:7 ~threads:7 ~scale:2. ~paranoid:true ~profiling:true
          ~chrome:true Numa_apps.Serve.app;
      ];
  }

let all = [ table3; serve; thrash; observed ]
let find name = List.find_opt (fun w -> w.name = name) all
let names () = List.map (fun w -> w.name) all

(* --- one rep --------------------------------------------------------- *)

(* What a traced rep counts, in this order. *)
let count_names =
  [
    "events"; "accesses"; "tlb_hits"; "tlb_misses"; "numa_enters"; "numa_moves"; "page_ins";
    "pt_walks"; "invariant_checks"; "hub_events"; "trace_events";
  ]

type outcome = {
  digest : string;  (** MD5 over every report's JSON, in system order *)
  events : int;
  spans : Spans.span list;
  alloc_words : float;  (** minor + major - promoted words over the rep *)
  peak_rss_mb : float;
  problems : string list;  (** empty = every output check passed *)
  gamma_err : float option;  (** mean |gamma_sim - gamma_paper| / gamma_paper *)
  counts : (string * float) list;  (** traced reps only *)
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Every "ph":"i" object is one recorded event; metadata rows are "M". *)
let count_trace_events text =
  let needle = "\"ph\":\"i\"" in
  let n = String.length needle in
  let rec go i acc =
    match String.index_from_opt text i '"' with
    | None -> acc
    | Some j ->
        if j + n <= String.length text && String.sub text j n = needle then go (j + n) (acc + 1)
        else go (j + 1) acc
  in
  go 0 0

let verify_trace path ~expected =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.check_structure text with
  | Error e -> [ Printf.sprintf "trace %s does not parse: %s" path e ]
  | Ok () ->
      let n = count_trace_events text in
      if n = expected then []
      else [ Printf.sprintf "trace holds %d events, the hub delivered %d" n expected ]

(* Per-system results the rep keeps after dropping the system itself. *)
type system_result = {
  s_digest : string;
  s_events : int;
  s_problems : string list;
  s_user_s : float;
  s_counts : float array;  (** indexed like [count_names] *)
  s_trace : (string * int) option;  (** saved trace path, events recorded *)
}

let report_problems sys (r : Report.t) (spec : system_spec) ~seed =
  let violations =
    let n = System.invariant_violations sys in
    if n = 0 then []
    else
      let first = match r.Report.robustness with Some rb -> rb.Report.first_violations | None -> [] in
      [ Printf.sprintf "%s: %d invariant violations (%s)" spec.label n (String.concat "; " first) ]
  in
  let conservation =
    match System.profile sys with
    | None -> []
    | Some p -> (
        let e = System.engine sys in
        let clocks =
          Array.init r.Report.n_cpus (fun cpu -> Numa_sim.Engine.clock_ns e ~cpu)
        in
        match Numa_obs.Profile.check_conservation p ~clocks ~elapsed_ns:r.Report.elapsed_ns with
        | Ok () -> []
        | Error msg -> [ Printf.sprintf "%s: profile conservation: %s" spec.label msg ])
  in
  let requests =
    match r.Report.resilience with
    | Some rs when rs.Report.conservation_violations > 0 ->
        [ Printf.sprintf "%s: %d request-conservation violations" spec.label rs.Report.conservation_violations ]
    | _ -> []
  in
  let served =
    match r.Report.serving with
    | None -> []
    | Some s ->
        let expect = Numa_apps.Serve.requests_for (spec.params ~seed).App_sig.scale in
        if s.Report.requests = expect then []
        else [ Printf.sprintf "%s: served %d of %d requests" spec.label s.Report.requests expect ]
  in
  violations @ conservation @ requests @ served

let run_system spans ~seed ~traced ~trace_dir (spec : system_spec) =
  Spans.with_span spans ("sys:" ^ spec.label) (fun () ->
      let hub = Hub.create () in
      let chrome =
        if spec.chrome then begin
          let tr = Chrome_trace.create ~n_cpus:spec.config.Numa_machine.Config.n_cpus in
          Chrome_trace.attach tr hub;
          Some tr
        end
        else None
      in
      let hub_events = ref 0 and accesses = ref 0 in
      if traced then Hub.attach hub ~name:"count" (fun ~ts:_ _ -> incr hub_events);
      let sys =
        Spans.with_span spans "create" (fun () ->
            System.create ~obs:hub ~policy:spec.policy ~paranoid:spec.paranoid
              ~profiling:spec.profiling ~pt_mode:spec.pt_mode ~config:spec.config ())
      in
      if traced then System.set_access_hook sys (Some (fun _ -> incr accesses));
      Spans.with_span spans "app_setup" (fun () -> spec.app.App_sig.setup sys (spec.params ~seed));
      let r = Spans.with_span spans "run" (fun () -> System.run sys) in
      let digest =
        Spans.with_span spans "report" (fun () ->
            Digest.to_hex (Digest.string (Json.to_string (Report.to_json r))))
      in
      let trace =
        Option.map
          (fun tr ->
            let path = Filename.temp_file ~temp_dir:trace_dir "trace-" ".json" in
            Spans.with_span spans "trace_save" (fun () -> Chrome_trace.save tr path);
            (path, Chrome_trace.length tr))
          chrome
      in
      let counts =
        if not traced then [||]
        else
          let or0 f = function Some x -> f x | None -> 0 in
          Array.map float_of_int
            [|
              r.Report.n_events;
              !accesses;
              r.Report.tlb_hits;
              r.Report.tlb_misses;
              r.Report.numa_enters;
              r.Report.numa_moves;
              or0 (fun (p : Report.paging) -> p.Report.page_ins) r.Report.paging;
              or0 (fun (p : Report.pt) -> p.Report.walks) r.Report.pt;
              or0 (fun (b : Report.robustness) -> b.Report.invariant_checks) r.Report.robustness;
              !hub_events;
              (match chrome with Some tr -> Chrome_trace.length tr | None -> 0);
            |]
      in
      {
        s_digest = digest;
        s_events = r.Report.n_events;
        s_problems = report_problems sys r spec ~seed;
        s_user_s = Report.total_user_s r;
        s_counts = counts;
        s_trace = trace;
      })

(* Mean relative gamma error against the paper, over the applications
   that ran the whole three-run protocol. *)
let gamma_err (w : t) results =
  let user role app =
    List.find_map
      (fun ((s : system_spec), r) ->
        if s.role = Some role && s.app.App_sig.name = app then Some r.s_user_s else None)
      (List.combine w.systems results)
  in
  let errs =
    List.filter_map
      (fun (s : system_spec) ->
        let app = s.app.App_sig.name in
        match (s.role, Numa_metrics.Paper_values.find_table3 app) with
        | Some T_numa, Some p -> (
            match (user T_numa app, user T_global app, user T_local app) with
            | Some t_numa, Some t_global, Some t_local ->
                let g = Numa_metrics.Model.gamma { Numa_metrics.Model.t_numa; t_global; t_local } in
                Some (Float.abs (g -. p.Numa_metrics.Paper_values.gamma) /. p.Numa_metrics.Paper_values.gamma)
            | _ -> None)
        | _ -> None)
      w.systems
  in
  match errs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs))

let rep (w : t) ~seed ~traced ~check_trace ~trace_dir =
  let spans = Spans.create () in
  let words0 = allocated_words () in
  let results =
    Spans.with_span spans "rep" (fun () ->
        List.map (run_system spans ~seed ~traced ~trace_dir) w.systems)
  in
  let alloc_words = allocated_words () -. words0 in
  let trace_problems =
    List.concat_map
      (fun r ->
        match r.s_trace with
        | None -> []
        | Some (path, n) ->
            let problems = if check_trace then verify_trace path ~expected:n else [] in
            Sys.remove path;
            problems)
      results
  in
  let counts =
    if not traced then []
    else
      List.mapi
        (fun i name -> (name, List.fold_left (fun acc r -> acc +. r.s_counts.(i)) 0. results))
        count_names
  in
  {
    digest =
      Digest.to_hex (Digest.string (String.concat "" (List.map (fun r -> r.s_digest) results)));
    events = List.fold_left (fun acc r -> acc + r.s_events) 0 results;
    spans = Spans.spans spans;
    alloc_words;
    peak_rss_mb = peak_rss_mb ();
    problems = List.concat_map (fun r -> r.s_problems) results @ trace_problems;
    gamma_err = gamma_err w results;
    counts;
  }

(* --- the child's one-line result ------------------------------------- *)

let outcome_to_json o =
  Json.Obj
    [
      ("digest", Json.String o.digest);
      ("events", Json.Int o.events);
      ("alloc_words", Json.Float o.alloc_words);
      ("peak_rss_mb", Json.Float o.peak_rss_mb);
      ("problems", Json.List (List.map (fun p -> Json.String p) o.problems));
      ("gamma_err", match o.gamma_err with Some g -> Json.Float g | None -> Json.Null);
      ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.counts));
      ("spans", Json.List (List.map Spans.to_json o.spans));
    ]

let outcome_of_json j =
  let ( let* ) = Option.bind in
  let num k = Option.bind (Json.member j k) Json.to_float in
  let* digest = match Json.member j "digest" with Some (Json.String s) -> Some s | _ -> None in
  let* events = match Json.member j "events" with Some (Json.Int n) -> Some n | _ -> None in
  let* alloc_words = num "alloc_words" in
  let* peak_rss_mb = num "peak_rss_mb" in
  let* problems =
    match Json.member j "problems" with
    | Some (Json.List l) ->
        Some (List.filter_map (function Json.String s -> Some s | _ -> None) l)
    | _ -> None
  in
  let gamma_err = num "gamma_err" in
  let* counts =
    match Json.member j "counts" with
    | Some (Json.Obj kvs) ->
        Some (List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kvs)
    | _ -> None
  in
  let* spans =
    match Json.member j "spans" with
    | Some (Json.List l) -> Some (List.filter_map Spans.of_json l)
    | _ -> None
  in
  Some { digest; events; spans; alloc_words; peak_rss_mb; problems; gamma_err; counts }
