module Profile = Numa_obs.Profile

(* One categorised charge awaiting drain. The context is resolved at
   charge time (the daemon tick or a fault application may be over by the
   time the charged CPU next drains); the nanoseconds are profiled only at
   drain time, when the engine actually puts them on a clock — charges
   that are never drained (e.g. a shootdown against a CPU that never
   touches memory again) never reach the profiler, keeping its totals in
   exact agreement with the CPU clocks. *)
type queued = { cat : Profile.kernel_cat; ctx : Profile.context; lpage : int; ns : float }

type t = {
  pending : float array;
  cumulative : float array;
  mutable queued : queued list array;  (* per cpu, newest first *)
  mutable profile : Profile.t option;
}

let create ~n_cpus =
  if n_cpus <= 0 then invalid_arg "Cost_sink.create: n_cpus must be positive";
  {
    pending = Array.make n_cpus 0.;
    cumulative = Array.make n_cpus 0.;
    queued = Array.make n_cpus [];
    profile = None;
  }

let set_profile t profile = t.profile <- profile
let profile t = t.profile

let add t ~cpu ~cat ~lpage ns =
  if ns < 0. then invalid_arg "Cost_sink.charge: negative charge";
  t.pending.(cpu) <- t.pending.(cpu) +. ns;
  t.cumulative.(cpu) <- t.cumulative.(cpu) +. ns;
  match t.profile with
  | None -> ()
  | Some p ->
      t.queued.(cpu) <- { cat; ctx = Profile.context p; lpage; ns } :: t.queued.(cpu)

let charge t ~cpu ?(cat = Profile.Pmap_action) ?(lpage = -1) ns = add t ~cpu ~cat ~lpage ns

let drain t ~cpu =
  let v = t.pending.(cpu) in
  t.pending.(cpu) <- 0.;
  (match t.profile with
  | None -> ()
  | Some p ->
      List.iter
        (fun q -> Profile.charge_kernel p ~cpu ~ctx:q.ctx ~cat:q.cat ~lpage:q.lpage q.ns)
        t.queued.(cpu);
      t.queued.(cpu) <- []);
  v

let pending t ~cpu = t.pending.(cpu)

let total_charged t ~cpu = t.cumulative.(cpu)

let grand_total t = Array.fold_left ( +. ) 0. t.cumulative
