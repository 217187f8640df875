(* The metric catalog: how each end-to-end and per-layer metric is
   computed from the reps of one workload, which end-to-end metric each
   layer should move, and the printers for [run] and [trace]. *)

module Json = Numa_obs.Json

(* One untraced rep, and how slow the host was around it: the
   calibration kernel's time over {!Calibration.reference_s}. *)
type rep = { outcome : Workload.outcome; slowdown : float }

(* One workload's untraced reps, as the parent saw them. *)
type run = {
  workload : Workload.t;
  seed : int64;
  reps : rep list;  (** the reps that passed every check *)
  attempted : int;
  failed : int;
  problems : string list;
  drift : bool;  (** the report digest differs from the committed one *)
}

(* --- end to end ------------------------------------------------------ *)

type e2e = {
  name : string;
  unit : string;
  exact : bool;  (** deterministic for a fixed seed: compared for equality *)
  samples : run -> float list;
}

let run_s (o : Workload.outcome) = Spans.total_s o.spans "run"
let setup_s (o : Workload.outcome) = Spans.total_s o.spans "create" +. Spans.total_s o.spans "app_setup"

(* Host seconds at the reference speed. *)
let scaled f r = List.map (fun { outcome; slowdown } -> f outcome /. slowdown) r.reps
let per_rep f r = List.map (fun { outcome; _ } -> f outcome) r.reps

let end_to_end =
  let timed name unit samples = { name; unit; exact = false; samples } in
  let exact name unit samples = { name; unit; exact = true; samples } in
  [
    timed "events_per_s" "1/s" (fun r ->
        List.map2 (fun { outcome; _ } t -> float_of_int outcome.events /. t) r.reps (scaled run_s r));
    timed "wall_s" "s" (scaled (fun o -> Spans.total_s o.spans "rep"));
    timed "setup_s" "s" (scaled setup_s);
    timed "peak_rss_mb" "MB" (per_rep (fun o -> o.peak_rss_mb));
    exact "alloc_words_per_event" "words" (per_rep (fun o -> o.alloc_words /. float_of_int o.events));
    exact "failed_frac" "ratio" (fun r -> [ float_of_int r.failed /. float_of_int (max 1 r.attempted) ]);
    exact "sim_drift" "count" (fun r -> [ (if r.drift then 1. else 0.) ]);
    exact "paper_gamma_err" "ratio" (fun r -> List.filter_map (fun { outcome; _ } -> outcome.gamma_err) r.reps);
  ]

(* Each metric with samples, summarised over the reps. *)
let measured r =
  List.filter_map
    (fun m -> match m.samples r with [] -> None | xs -> Some (m, Stats.summarize xs))
    end_to_end

let values r = List.map (fun ((m : e2e), (s : Stats.summary)) -> (m.name, s.median)) (measured r)

(* --- per layer ------------------------------------------------------- *)

type trace = {
  untraced : run;
  traced : Workload.outcome;
  micro : (string * float) list;  (** {!Layers.measure} *)
}

type layer = {
  name : string;
  unit : string;
  moves : string;  (** the end-to-end metric and workloads it should move *)
  value : trace -> float;
}

let micro_value name t = Option.value (List.assoc_opt name t.micro) ~default:nan
let count name t = Option.value (List.assoc_opt name t.traced.counts) ~default:nan
let median_run_s t = Stats.median (per_rep run_s t.untraced)
let span name t = Stats.median (per_rep (fun o -> Spans.total_s o.spans name) t.untraced)

let micro name unit moves = { name; unit; moves; value = micro_value name }
let count_metric c moves = { name = "count." ^ c; unit = "count"; moves; value = count c }

(* Host nanoseconds the layer would take over the run, as a share of the
   untraced run time: count x cost per op / run time. *)
let share layer ~ops ~cost moves =
  {
    name = "share." ^ layer;
    unit = "ratio";
    moves;
    value = (fun t -> ops t *. cost t /. (median_run_s t *. 1e9));
  }

let profiled t = List.exists (fun (s : Workload.system_spec) -> s.profiling) t.untraced.workload.systems

let per_layer =
  let eps_all = "events_per_s on all four" in
  [
    micro "event_queue.add_pop_ns" "ns" "events_per_s on serve, table3";
    micro "engine.turn_ns" "ns" eps_all;
    micro "engine.sleep_until_ns" "ns" "events_per_s on serve";
    micro "system.access_hit_ns" "ns" "events_per_s on serve";
    micro "mmu.translate_hit_ns" "ns" "events_per_s on serve";
    micro "mmu.translate_miss_ns" "ns" "events_per_s on thrash";
    micro "pt.walk_ns" "ns" "events_per_s on thrash";
    micro "cost_sink.drain_empty_ns" "ns" "events_per_s on serve";
    micro "cost_sink.charge_drain_ns" "ns" "events_per_s on thrash";
    micro "numa.request_ns" "ns" "events_per_s on table3, thrash";
    micro "hub.emit_off_ns" "ns" "events_per_s on serve";
    micro "hub.emit_on_ns" "ns" "wall_s on observed";
    micro "chrome_trace.record_ns" "ns" "wall_s on observed";
    micro "profile.charge_ref_ns" "ns" "wall_s on observed";
    micro "invariant.audit_ms" "ms" "wall_s on observed";
    micro "chrome_trace.save_ns_per_event" "ns" "wall_s, peak_rss_mb on observed";
    micro "report.to_json_ms" "ms" "wall_s on all four";
    { name = "span.create_s"; unit = "s"; moves = "setup_s"; value = span "create" };
    { name = "span.app_setup_s"; unit = "s"; moves = "setup_s"; value = span "app_setup" };
    { name = "span.run_s"; unit = "s"; moves = "events_per_s"; value = span "run" };
    { name = "span.report_s"; unit = "s"; moves = "wall_s"; value = span "report" };
    { name = "span.trace_save_s"; unit = "s"; moves = "wall_s on observed"; value = span "trace_save" };
    count_metric "events" eps_all;
    count_metric "accesses" eps_all;
    count_metric "tlb_hits" "events_per_s on serve";
    count_metric "tlb_misses" "events_per_s on thrash";
    {
      name = "ratio.tlb_hit";
      unit = "ratio";
      moves = "events_per_s on serve, thrash";
      value = (fun t -> count "tlb_hits" t /. (count "tlb_hits" t +. count "tlb_misses" t));
    };
    count_metric "numa_enters" "events_per_s on table3, thrash";
    count_metric "numa_moves" "events_per_s on table3";
    count_metric "page_ins" "events_per_s on thrash";
    count_metric "pt_walks" "events_per_s on thrash";
    count_metric "invariant_checks" "wall_s on observed";
    count_metric "hub_events" "wall_s on observed";
    count_metric "trace_events" "wall_s, peak_rss_mb on observed";
    share "event_queue" ~ops:(count "events") ~cost:(micro_value "event_queue.add_pop_ns")
      "events_per_s on serve, table3";
    share "engine" ~ops:(count "events") ~cost:(micro_value "engine.turn_ns") eps_all;
    (* The access path's own cost: the full-System hit minus the engine
       turn that delivered it. *)
    share "access_hit" ~ops:(count "accesses")
      ~cost:(fun t -> micro_value "system.access_hit_ns" t -. micro_value "engine.turn_ns" t)
      "events_per_s on serve";
    share "tlb_miss" ~ops:(count "tlb_misses") ~cost:(micro_value "mmu.translate_miss_ns")
      "events_per_s on thrash";
    share "pt_walk" ~ops:(count "pt_walks") ~cost:(micro_value "pt.walk_ns") "events_per_s on thrash";
    share "cost_sink" ~ops:(count "accesses") ~cost:(micro_value "cost_sink.drain_empty_ns")
      "events_per_s on serve";
    share "numa" ~ops:(count "numa_enters") ~cost:(micro_value "numa.request_ns")
      "events_per_s on table3, thrash";
    (* Untraced, only a workload with a trace sink pays the enabled emit. *)
    share "hub" ~ops:(count "hub_events")
      ~cost:(fun t ->
        micro_value (if count "trace_events" t > 0. then "hub.emit_on_ns" else "hub.emit_off_ns") t)
      "wall_s on observed";
    share "chrome_trace" ~ops:(count "trace_events") ~cost:(micro_value "chrome_trace.record_ns")
      "wall_s on observed";
    share "profile"
      ~ops:(fun t -> if profiled t then count "accesses" t else 0.)
      ~cost:(micro_value "profile.charge_ref_ns") "wall_s on observed";
    share "invariant" ~ops:(count "invariant_checks")
      ~cost:(fun t -> micro_value "invariant.audit_ms" t *. 1e6)
      "wall_s on observed";
    {
      name = "trace_overhead_x";
      unit = "x";
      moves = "none (the cost of the traced run itself)";
      value = (fun t -> run_s t.traced /. median_run_s t);
    };
  ]

let layer_values t = List.map (fun (l : layer) -> (l.name, l.value t)) per_layer

(* --- printers -------------------------------------------------------- *)

let fmt_value x =
  if Float.is_nan x then "n/a"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 1000. then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.4g" x

let print_run buf r =
  Printf.bprintf buf "== %s (seed %Ld): %d reps attempted, %d failed%s\n" r.workload.name r.seed
    r.attempted r.failed
    (if r.drift then ", SIMULATED OUTPUT DRIFTED" else "");
  List.iter (fun p -> Printf.bprintf buf "   problem: %s\n" p) r.problems;
  if r.reps <> [] then
    Printf.bprintf buf "   host slowdown against the reference: median %.3f\n"
      (Stats.median (List.map (fun rep -> rep.slowdown) r.reps));
  let row = Printf.bprintf buf "   %-24s %-6s %14s %14s %14s %4s\n" in
  row "metric" "unit" "median" "q1" "q3" "n";
  let rows = measured r in
  List.iter
    (fun (m : e2e) ->
      match List.assq_opt m rows with
      | Some s ->
          row m.name m.unit (fmt_value s.Stats.median) (fmt_value s.Stats.q1) (fmt_value s.Stats.q3)
            (string_of_int s.Stats.n)
      | None -> row m.name m.unit "n/a" "" "" "")
    end_to_end

let print_trace buf t =
  Printf.bprintf buf "== %s (seed %Ld): per-layer metrics\n" t.untraced.workload.name t.untraced.seed;
  Printf.bprintf buf "   %-32s %-6s %14s  %s\n" "metric" "unit" "value" "should move";
  List.iter
    (fun (l : layer) ->
      Printf.bprintf buf "   %-32s %-6s %14s  %s\n" l.name l.unit (fmt_value (l.value t)) l.moves)
    per_layer;
  Printf.bprintf buf "   spans of the traced rep (total / self seconds):\n";
  List.iter
    (fun (name, (total, self)) -> Printf.bprintf buf "     %-28s %10.4f %10.4f\n" name total self)
    (Spans.totals t.traced.spans)

(* --- the result line ------------------------------------------------- *)

(* One JSON object: correctness, rep counts, and each named metric's
   value with its unit. A metric without a value (every rep failed)
   reads null. *)
let result_line ~correct ~attempted ~failed (metrics : Schema.metric list) values =
  let entry (m : Schema.metric) =
    let v = Option.value (List.assoc_opt m.name values) ~default:nan in
    (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj (List.map entry metrics));
       ])

(* --- the run record (read back by [compare] and the history) --------- *)

let run_to_json r =
  Json.Obj
    [
      ("workload", Json.String r.workload.name);
      ("seed", Json.String (Int64.to_string r.seed));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("problems", Json.List (List.map (fun p -> Json.String p) r.problems));
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : e2e), (s : Stats.summary)) ->
               ( m.name,
                 Json.Obj
                   [
                     ("median", Json.Float s.median);
                     ("q1", Json.Float s.q1);
                     ("q3", Json.Float s.q3);
                     ("n", Json.Int s.n);
                   ] ))
             (measured r)) );
    ]

(* [(workload, metric) -> median] from a saved record. *)
let medians_of_json j =
  match Json.member j "workloads" with
  | Some (Json.List ws) ->
      List.concat_map
        (fun w ->
          match (Json.member w "workload", Json.member w "metrics") with
          | Some (Json.String name), Some (Json.Obj ms) ->
              List.filter_map
                (fun (m, s) ->
                  Option.map (fun v -> ((name, m), v)) (Option.bind (Json.member s "median") Json.to_float))
                ms
          | _ -> [])
        ws
  | _ -> []
