open Numa_machine

type scheduler_mode = Affinity | Single_queue

(* [Float.max] with the NaN handling stripped: virtual times are never
   NaN, and this runs several times per event. Stays local so it inlines. *)
let fmax (a : float) b = if a < b then b else a

type config = {
  n_cpus : int;
  chunk_refs : int;
  compute_slice_ns : float;
  spin_poll_ns : float;
  unix_master : bool;
  max_events : int;
}

let default_config ~n_cpus =
  {
    n_cpus;
    chunk_refs = 2048;
    compute_slice_ns = 2_000_000. (* 2 ms *);
    spin_poll_ns = 10_000. (* 10 us *);
    unix_master = false;
    max_events = 200_000_000;
  }

exception Deadlock of string

type step = Finished | Blocked of Op.t * (int, step) Effect.Deep.continuation

(* The op currently being worked through, chunk by chunk. *)
type pending =
  | P_refs of {
      vpage : int;
      access : Access.t;
      mutable remaining : int;
      value : int;
      mutable last_value : int;
    }
  | P_compute of { mutable remaining_ns : float }
  | P_lock of Sync.lock
  | P_unlock of Sync.lock
  | P_barrier of { b : Sync.barrier; mutable arrived : bool; mutable gen : int }
  | P_syscall of { service_ns : float; touch_stack : bool }
  | P_migrate of { target : int }
  | P_sleep of { until_ns : float }
  | P_deadline_push of { until_ns : float }
  | P_deadline_pop

type thread = {
  tid : int;
  name : string;
  mutable cpu : int;
  stack_vpage : int option;
  mutable kont : (int, step) Effect.Deep.continuation option;
  mutable pending : pending option;
  mutable finished : bool;
  mutable ready_at : float;
  mutable deadlines : (int * float) list;
      (** armed cancellable timers, newest first: (timer id, absolute
          virtual-time deadline) *)
  mutable deadline : float;
      (** cached tightest armed deadline ([infinity] when none) — read at
          every chunk boundary, so it must be O(1) *)
}

type t = {
  config : config;
  memory : Memory_iface.t;
  scheduler : scheduler_mode;
  obs : Numa_obs.Hub.t;
  clock : float array;
  user : float array;
  system : float array;
  mutable vnow : float;
  events : Event_queue.t;  (* (time, seq) -> tid *)
  mutable seq : int;
  threads : (int, thread) Hashtbl.t;
  mutable thread_by_tid : thread array;
      (** flat tid index, rebuilt when [run] starts; threads cannot spawn
          after that *)
  mutable next_tid : int;
  mutable live : int;
  mutable spawn_rr : int;  (* round-robin cursor for default CPU assignment *)
  mutable next_timer_id : int;  (* deadline timer ids, allocated in event order *)
  mutable n_events : int;
  mutable next_sync_id : int;
  mutable running : bool;
  mutable completed : bool;
  mutable turn_hook : (now:float -> unit) option;
      (** fault injection taps every scheduling turn; [now] is the
          monotone virtual clock *)
  mutable profile : Numa_obs.Profile.t option;
      (** when set, every nanosecond a clock advances is attributed *)
}

let create ?obs config ~memory ~scheduler =
  if config.n_cpus <= 0 then invalid_arg "Engine.create: n_cpus must be positive";
  if config.chunk_refs <= 0 then invalid_arg "Engine.create: chunk_refs must be positive";
  let obs = match obs with Some h -> h | None -> Numa_obs.Hub.create () in
  let t =
  {
    config;
    memory;
    scheduler;
    obs;
    clock = Array.make config.n_cpus 0.;
    user = Array.make config.n_cpus 0.;
    system = Array.make config.n_cpus 0.;
    vnow = 0.;
    events = Event_queue.create ();
    seq = 0;
    threads = Hashtbl.create 32;
    thread_by_tid = [||];
    next_tid = 0;
    live = 0;
    spawn_rr = 0;
    next_timer_id = 0;
    n_events = 0;
    next_sync_id = 0;
    running = false;
    completed = false;
    turn_hook = None;
    profile = None;
  }
  in
  (* Events carry the engine's virtual clock, so a sink attached anywhere in
     the stack timestamps in simulated nanoseconds. *)
  Numa_obs.Hub.set_clock obs (fun () -> t.vnow);
  t

let obs t = t.obs
let set_turn_hook t hook = t.turn_hook <- Some hook

let set_profile t p =
  t.profile <- Some p;
  Numa_obs.Profile.set_clock p (fun () -> t.vnow)

let profile t = t.profile

let make_lock t ~vpage =
  let id = t.next_sync_id in
  t.next_sync_id <- id + 1;
  Sync.make_lock ~id ~vpage

let make_barrier t ~vpage ~parties =
  let id = t.next_sync_id in
  t.next_sync_id <- id + 1;
  Sync.make_barrier ~id ~vpage ~parties

let schedule t th time =
  th.ready_at <- time;
  Event_queue.add t.events ~time ~seq:t.seq ~tid:th.tid;
  t.seq <- t.seq + 1

let handler : (unit, step) Effect.Deep.handler =
  {
    retc = (fun () -> Finished);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Api.Sim_op op ->
            Some (fun (k : (a, step) Effect.Deep.continuation) -> Blocked (op, k))
        | _ -> None);
  }

let begin_pending = function
  | Op.Read { vpage; count } ->
      P_refs { vpage; access = Access.Load; remaining = count; value = 0; last_value = 0 }
  | Op.Write { vpage; count; value } ->
      P_refs { vpage; access = Access.Store; remaining = count; value; last_value = value }
  | Op.Compute { ns } -> P_compute { remaining_ns = ns }
  | Op.Lock_acquire l -> P_lock l
  | Op.Lock_release l -> P_unlock l
  | Op.Barrier_wait b -> P_barrier { b; arrived = false; gen = b.Sync.generation }
  | Op.Syscall { service_ns; touch_stack } -> P_syscall { service_ns; touch_stack }
  | Op.Migrate { cpu } -> P_migrate { target = cpu }
  | Op.Sleep_until { until_ns } -> P_sleep { until_ns }
  | Op.Deadline_push { until_ns } -> P_deadline_push { until_ns }
  | Op.Deadline_pop -> P_deadline_pop

let spawn t ?cpu ?stack_vpage ~name body =
  if t.running || t.completed then invalid_arg "Engine.spawn: engine already running";
  let cpu =
    match cpu with
    | Some c ->
        if c < 0 || c >= t.config.n_cpus then invalid_arg "Engine.spawn: bad cpu";
        c
    | None ->
        let c = t.spawn_rr mod t.config.n_cpus in
        t.spawn_rr <- t.spawn_rr + 1;
        c
  in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    {
      tid;
      name;
      cpu;
      stack_vpage;
      kont = None;
      pending = None;
      finished = false;
      ready_at = 0.;
      deadlines = [];
      deadline = infinity;
    }
  in
  Hashtbl.replace t.threads tid th;
  t.live <- t.live + 1;
  (* Launch the body up to its first operation right away; the first chunk
     is processed when the run loop pops the thread's initial event. *)
  (match Effect.Deep.match_with (fun () -> body ()) () handler with
  | Finished ->
      th.finished <- true;
      t.live <- t.live - 1
  | Blocked (op, k) ->
      th.kont <- Some k;
      th.pending <- Some (begin_pending op);
      schedule t th 0.);
  tid

(* Outcome of processing one chunk at time [start] on [cpu]:
   [user]/[system] durations consumed on that CPU, whether the whole op is
   now complete (with its result value), and — for operations that park the
   thread elsewhere (system calls) or that poll — an explicit next-ready
   time instead of cpu-clock progression. *)
type chunk_outcome = {
  d_user : float;
  d_system : float;
  completed : bool;
  result : int;
  ready_override : float option;
}

let chunk ~d_user ~d_system ?(completed = false) ?(result = 0) ?ready_override () =
  { d_user; d_system; completed; result; ready_override }

let access t th ~cpu ~vpage ~access:a ~count ~value =
  t.memory.Memory_iface.access ~cpu ~tid:th.tid ~vpage ~access:a ~count ~value

let process_chunk t th ~cpu ~start pending =
  match pending with
  | P_refs r ->
      let n = min r.remaining t.config.chunk_refs in
      let res = access t th ~cpu ~vpage:r.vpage ~access:r.access ~count:n ~value:r.value in
      r.remaining <- r.remaining - n;
      r.last_value <- res.Memory_iface.value;
      chunk ~d_user:res.Memory_iface.user_ns ~d_system:res.Memory_iface.system_ns
        ~completed:(r.remaining = 0) ~result:r.last_value ()
  | P_compute c ->
      let slice = Float.min c.remaining_ns t.config.compute_slice_ns in
      c.remaining_ns <- c.remaining_ns -. slice;
      (match t.profile with
      | Some p -> Numa_obs.Profile.charge_compute p ~cpu ~tid:th.tid slice
      | None -> ());
      chunk ~d_user:slice ~d_system:0. ~completed:(c.remaining_ns <= 0.) ()
  | P_lock l -> (
      match l.Sync.holder with
      | None ->
          (* Successful test-and-set: a fetch and a store on the lock page. *)
          let rd = access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Load ~count:1 ~value:0 in
          let wr = access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Store ~count:1 ~value:1 in
          Sync.acquire ~obs:t.obs ?profile:t.profile l ~tid:th.tid ~cpu;
          chunk
            ~d_user:(rd.Memory_iface.user_ns +. wr.Memory_iface.user_ns)
            ~d_system:(rd.Memory_iface.system_ns +. wr.Memory_iface.system_ns)
            ~completed:true ()
      | Some _ ->
          (* Busy: burn one poll interval in user state and try again. *)
          let rd = access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Load ~count:1 ~value:0 in
          Sync.contend ~obs:t.obs l ~tid:th.tid ~cpu;
          let d_user = fmax rd.Memory_iface.user_ns t.config.spin_poll_ns in
          (match t.profile with
          | Some p ->
              (* The poll reference itself was charged as a ref by the
                 memory layer; only the poll padding is spin. *)
              Numa_obs.Profile.charge_lock_spin p ~cpu ~tid:th.tid
                ~lock_id:l.Sync.lock_id
                (d_user -. rd.Memory_iface.user_ns)
          | None -> ());
          chunk ~d_user ~d_system:rd.Memory_iface.system_ns ())
  | P_unlock l ->
      (match l.Sync.holder with
      | Some tid when tid = th.tid -> ()
      | Some _ | None ->
          failwith
            (Printf.sprintf "thread %d (%s) released lock %d it does not hold" th.tid
               th.name l.Sync.lock_id));
      (* The releasing store happens while the thread still holds the lock;
         only then does the holder flip. Anything the store triggers (fault
         handling, bus traffic, its Refs event) is thereby accounted inside
         the hold interval, and no other thread can observe the lock free
         before the memory traffic that freed it exists. *)
      let wr = access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Store ~count:1 ~value:0 in
      Sync.release ~obs:t.obs ?profile:t.profile l ~tid:th.tid ~cpu;
      chunk ~d_user:wr.Memory_iface.user_ns ~d_system:wr.Memory_iface.system_ns
        ~completed:true ()
  | P_barrier pb ->
      let b = pb.b in
      if not pb.arrived then begin
        (* Arrival: read-modify-write of the counter. *)
        let rd = access t th ~cpu ~vpage:b.Sync.barrier_vpage ~access:Access.Load ~count:1 ~value:0 in
        let wr =
          access t th ~cpu ~vpage:b.Sync.barrier_vpage ~access:Access.Store ~count:1
            ~value:(b.Sync.arrived + 1)
        in
        pb.arrived <- true;
        pb.gen <- b.Sync.generation;
        b.Sync.arrived <- b.Sync.arrived + 1;
        let released = b.Sync.arrived = b.Sync.parties in
        if released then begin
          b.Sync.generation <- b.Sync.generation + 1;
          b.Sync.arrived <- 0
        end;
        chunk
          ~d_user:(rd.Memory_iface.user_ns +. wr.Memory_iface.user_ns)
          ~d_system:(rd.Memory_iface.system_ns +. wr.Memory_iface.system_ns)
          ~completed:released ()
      end
      else if b.Sync.generation > pb.gen then
        (* Release observed on this poll. *)
        let rd = access t th ~cpu ~vpage:b.Sync.barrier_vpage ~access:Access.Load ~count:1 ~value:0 in
        chunk ~d_user:rd.Memory_iface.user_ns ~d_system:rd.Memory_iface.system_ns
          ~completed:true ()
      else begin
        let rd = access t th ~cpu ~vpage:b.Sync.barrier_vpage ~access:Access.Load ~count:1 ~value:0 in
        let d_user = fmax rd.Memory_iface.user_ns t.config.spin_poll_ns in
        (match t.profile with
        | Some p ->
            Numa_obs.Profile.charge_barrier_spin p ~cpu ~tid:th.tid
              (d_user -. rd.Memory_iface.user_ns)
        | None -> ());
        chunk ~d_user ~d_system:rd.Memory_iface.system_ns ()
      end
  | P_migrate { target } ->
      if target < 0 || target >= t.config.n_cpus then
        failwith
          (Printf.sprintf "thread %d (%s) migrated to nonexistent cpu %d" th.tid th.name
             target);
      th.cpu <- target;
      (* A reschedule: the thread resumes on the target once it is past
         both its own time and the target's clock; the dispatch work is
         system time there. *)
      let resume = fmax start t.clock.(target) +. 50_000. in
      (match t.profile with
      | Some p ->
          (* The target clock jumps to [fmax start clock] (an idle gap if
             the event time is ahead) and then serves the dispatch. *)
          Numa_obs.Profile.charge_idle p ~cpu:target
            (fmax start t.clock.(target) -. t.clock.(target));
          Numa_obs.Profile.charge_dispatch p ~cpu:target 50_000.
      | None -> ());
      t.system.(target) <- t.system.(target) +. 50_000.;
      t.clock.(target) <- resume;
      chunk ~d_user:0. ~d_system:0. ~completed:true ~ready_override:resume ()
  | P_syscall { service_ns; touch_stack } ->
      let master = if t.config.unix_master then 0 else cpu in
      let start_service = fmax start t.clock.(master) in
      let stack_ns =
        if touch_stack then
          match th.stack_vpage with
          | None -> 0.
          | Some vpage ->
              (* The kernel reads arguments from and writes results to the
                 caller's stack while running on the (master) CPU. *)
              let rd = access t th ~cpu:master ~vpage ~access:Access.Load ~count:4 ~value:0 in
              let wr = access t th ~cpu:master ~vpage ~access:Access.Store ~count:4 ~value:0 in
              rd.Memory_iface.user_ns +. wr.Memory_iface.user_ns
              +. rd.Memory_iface.system_ns +. wr.Memory_iface.system_ns
        else 0.
      in
      let finish = start_service +. service_ns +. stack_ns in
      t.system.(master) <- t.system.(master) +. service_ns +. stack_ns;
      if Numa_obs.Hub.enabled t.obs then
        Numa_obs.Hub.emit t.obs
          (Numa_obs.Event.Syscall { tid = th.tid; cpu = master; service_ns });
      (match t.profile with
      | Some p ->
          (* Stack references charged themselves through the memory layer;
             the master's remaining clock advance is the wait for the
             master to come free plus the service itself. *)
          Numa_obs.Profile.charge_idle p ~cpu:master
            (start_service -. t.clock.(master));
          Numa_obs.Profile.charge_syscall p ~cpu:master service_ns
      | None -> ());
      t.clock.(master) <- fmax t.clock.(master) finish;
      (* The calling thread was blocked, not computing: its own CPU accrues
         neither user nor system time; it resumes when the call returns. *)
      chunk ~d_user:0. ~d_system:0. ~completed:true ~ready_override:finish ()
  | P_sleep { until_ns } ->
      (* An open-loop timer: park until the virtual deadline without
         touching any CPU clock. A deadline already past resumes at [start]
         (the sleeper was behind, e.g. a serving thread draining a queue
         backlog). The gap, if any, is charged as idle when the thread's
         next chunk finds its event time ahead of the CPU clock. *)
      chunk ~d_user:0. ~d_system:0. ~completed:true
        ~ready_override:(fmax start until_ns) ()
  | P_deadline_push { until_ns } ->
      (* Arm a cancellable timer. Free of simulated time: the deadline
         machinery models a kernel timer wheel whose cost is negligible
         next to a single remote reference. Ids are allocated in event
         order, so they are deterministic. *)
      let id = t.next_timer_id in
      t.next_timer_id <- id + 1;
      th.deadlines <- (id, until_ns) :: th.deadlines;
      if until_ns < th.deadline then th.deadline <- until_ns;
      chunk ~d_user:0. ~d_system:0. ~completed:true ~result:id ()
  | P_deadline_pop ->
      (match th.deadlines with
      | [] ->
          failwith
            (Printf.sprintf "thread %d (%s) popped a deadline it never pushed" th.tid
               th.name)
      | _ :: rest ->
          th.deadlines <- rest;
          th.deadline <- List.fold_left (fun a (_, u) -> Float.min a u) infinity rest);
      chunk ~d_user:0. ~d_system:0. ~completed:true ()

let pick_cpu t th =
  match t.scheduler with
  | Affinity -> th.cpu
  | Single_queue ->
      (* Original Mach: the next available processor takes the thread. *)
      let best = ref 0 in
      for c = 1 to t.config.n_cpus - 1 do
        if t.clock.(c) < t.clock.(!best) then best := c
      done;
      th.cpu <- !best;
      !best

let finish_thread t th =
  th.finished <- true;
  th.kont <- None;
  th.pending <- None;
  t.live <- t.live - 1

(* Process one scheduling turn for [th]: one chunk; on op completion,
   resume the thread body (possibly through several ops) while no other
   event is due earlier. *)
let turn t th =
  let cpu = pick_cpu t th in
  let start = fmax th.ready_at t.clock.(cpu) in
  (* The virtual clock is monotone: a turn that starts on a CPU whose
     local clock lags another CPU's must not drag [vnow] (and with it
     every observability timestamp) backwards. *)
  t.vnow <- fmax t.vnow start;
  (match t.turn_hook with None -> () | Some hook -> hook ~now:t.vnow);
  if Numa_obs.Hub.enabled t.obs then
    Numa_obs.Hub.emit t.obs
      (Numa_obs.Event.Dispatch { tid = th.tid; cpu; name = th.name });
  let rec go start =
    match th.pending with
    | None -> ()
    | Some _ when start >= th.deadline -> fire start
    | Some pending ->
        let o = process_chunk t th ~cpu ~start pending in
        t.user.(cpu) <- t.user.(cpu) +. o.d_user;
        t.system.(cpu) <- t.system.(cpu) +. o.d_system;
        let after =
          match o.ready_override with
          | Some v -> v
          | None ->
              (match t.profile with
              | Some p when start > t.clock.(cpu) ->
                  (* The thread's event time was ahead of its CPU's clock:
                     the CPU sat idle for the difference. *)
                  Numa_obs.Profile.charge_idle p ~cpu (start -. t.clock.(cpu))
              | Some _ | None -> ());
              t.clock.(cpu) <- start +. o.d_user +. o.d_system;
              t.clock.(cpu)
        in
        t.vnow <- fmax t.vnow after;
        if not o.completed then schedule t th after
        else begin
          th.pending <- None;
          match th.kont with
          | None -> assert false
          | Some k -> (
              th.kont <- None;
              match Effect.Deep.continue k o.result with
              | Finished -> finish_thread t th
              | Blocked (op, k') ->
                  th.kont <- Some k';
                  th.pending <- Some (begin_pending op);
                  (* Keep running inline while no other event is due first;
                     avoids heap churn for single-threaded phases. *)
                  let can_inline =
                    o.ready_override = None && Event_queue.min_time t.events >= after
                  in
                  if can_inline then begin
                    t.n_events <- t.n_events + 1;
                    if t.n_events > t.config.max_events then
                      failwith "Engine.run: event budget exceeded";
                    go after
                  end
                  else
                    (* A parked thread (sleep, syscall return) must still
                       observe its tightest deadline: wake at the deadline
                       instant instead of sleeping through it, so the
                       timer fires exactly on time. *)
                    schedule t th
                      (if after > th.deadline then fmax start th.deadline else after))
        end
  and fire start =
    (* The tightest armed timer has expired: abandon the current operation
       at this chunk boundary and unwind the thread with
       {!Api.Deadline_exceeded}. Scopes armed after the firing timer can
       no longer pop themselves (the unwind bypasses their pop), so they
       are disarmed here as well; outer scopes stay armed. *)
    let fired = th.deadline in
    let rec split = function
      | [] -> assert false
      | (id, u) :: rest -> if u <= fired then (id, rest) else split rest
    in
    let id, rest = split th.deadlines in
    th.deadlines <- rest;
    th.deadline <- List.fold_left (fun a (_, u) -> Float.min a u) infinity rest;
    th.pending <- None;
    match th.kont with
    | None -> assert false
    | Some k -> (
        th.kont <- None;
        (* Unwinding may itself perform operations (with_lock releases its
           lock on the way out); they surface here as a fresh blocked op
           and run at [start] — at or after the deadline instant, never
           before. *)
        match Effect.Deep.discontinue k (Api.Deadline_exceeded id) with
        | Finished -> finish_thread t th
        | Blocked (op, k') ->
            th.kont <- Some k';
            th.pending <- Some (begin_pending op);
            if Event_queue.min_time t.events >= start then begin
              t.n_events <- t.n_events + 1;
              if t.n_events > t.config.max_events then
                failwith "Engine.run: event budget exceeded";
              go start
            end
            else schedule t th start)
  in
  go start

let run t =
  if t.running || t.completed then invalid_arg "Engine.run: already running";
  t.running <- true;
  t.thread_by_tid <-
    Array.init t.next_tid (fun tid -> Hashtbl.find t.threads tid);
  let rec loop () =
    let tid = Event_queue.pop_min t.events in
    if tid < 0 then begin
      if t.live > 0 then
        raise
          (Deadlock
             (Printf.sprintf "%d thread(s) blocked with no runnable events" t.live))
    end
    else begin
      t.n_events <- t.n_events + 1;
      if t.n_events > t.config.max_events then
        failwith "Engine.run: event budget exceeded";
      let th = t.thread_by_tid.(tid) in
      if not th.finished then turn t th;
      loop ()
    end
  in
  loop ();
  t.running <- false;
  t.completed <- true

let now t = t.vnow
let clock_ns t ~cpu = t.clock.(cpu)
let user_ns t ~cpu = t.user.(cpu)
let system_ns t ~cpu = t.system.(cpu)
let total_user_ns t = Array.fold_left ( +. ) 0. t.user
let total_system_ns t = Array.fold_left ( +. ) 0. t.system
let elapsed_ns t = Array.fold_left Float.max 0. t.clock
let n_events t = t.n_events
let n_threads t = Hashtbl.length t.threads
(* Hot on serving paths: the flat index once [run] has built it, the table
   before that. *)
let thread_cpu t ~tid =
  if tid >= 0 && tid < Array.length t.thread_by_tid then t.thread_by_tid.(tid).cpu
  else (Hashtbl.find t.threads tid).cpu

let rehome t ~tid ~cpu =
  if cpu < 0 || cpu >= t.config.n_cpus then invalid_arg "Engine.rehome: bad cpu";
  match Hashtbl.find_opt t.threads tid with
  | None -> false
  | Some th ->
      if th.finished || th.cpu = cpu then false
      else begin
        (* th.cpu is only read at the start of a scheduling turn
           (pick_cpu), so flipping it between chunks is a clean
           reschedule: the thread's next chunk runs on the target. The
           dispatch costs the same 50 us of system time as a
           self-migration (P_migrate), charged to the target CPU. *)
        th.cpu <- cpu;
        (match t.profile with
        | Some p -> Numa_obs.Profile.charge_dispatch p ~cpu 50_000.
        | None -> ());
        t.system.(cpu) <- t.system.(cpu) +. 50_000.;
        t.clock.(cpu) <- t.clock.(cpu) +. 50_000.;
        true
      end
