open Numa_machine

type scheduler_mode = Affinity | Single_queue

(* [Float.max] with the NaN handling stripped: virtual times are never
   NaN, and this runs several times per event. Stays local so it inlines. *)
let fmax (a : float) b = if a < b then b else a
let fmin (a : float) b = if a < b then a else b

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

(* Where a thread body stands: returned, or suspended on an op. *)
type step = Finished | Suspended of (int, step) Effect.Deep.continuation

(* The engine's handler returns this one value for every [perform], so
   it allocates no closure or option per op: a suspension costs only the
   two-word [Suspended] box. *)
let suspend = Some (fun k -> Suspended k)

(* A thread's float state. A record of floats only is stored flat, so
   updating a field allocates nothing; a float field of a mixed record is a
   pointer to a fresh box. *)
type times = {
  mutable ready_at : float;
  mutable deadline : float;
      (** cached tightest armed deadline ([infinity] when none) — read at
          every chunk boundary, so it must be O(1) *)
  mutable compute_left : float;  (** [Compute]: nanoseconds still to run *)
}

type thread = {
  tid : int;
  name : string;
  mutable cpu : int;
  stack_vpage : int option;
  mutable step : step;
      (** [Suspended k] while the body waits on [op]; [k] is resumed with
          the op's result *)
  mutable op : Op.t;  (** the op being worked through, chunk by chunk *)
  mutable refs_left : int;  (** [Read]/[Write]: references still to issue *)
  mutable arrived : bool;  (** [Barrier_wait]: counted in at the barrier *)
  mutable gen : int;  (** [Barrier_wait]: the generation counted into *)
  times : times;
  mutable deadlines : (int * float) list;
      (** armed cancellable timers, newest first: (timer id, absolute
          virtual-time deadline) *)
}

(* The engine's per-event floats, flat for the same reason as [times]:
   the virtual clock, and the outcome of the chunk just processed. *)
type floats = {
  mutable vnow : float;
  mutable start : float;  (** the current chunk's start time *)
  mutable d_user : float;  (** user time the chunk consumed on its CPU *)
  mutable d_system : float;  (** system time the chunk consumed on its CPU *)
  mutable wake : float;
      (** when the op parks the thread elsewhere (syscall, migrate, sleep):
          its next ready time; [neg_infinity] when it follows the CPU
          clock *)
}

type t = {
  config : config;
  memory : Memory_iface.t;
  scheduler : scheduler_mode;
  obs : Numa_obs.Hub.t;
  clock : float array;
  user : float array;
  system : float array;
  fl : floats;
  mutable result : int;  (** the value a completed chunk returns to the body *)
  performed : Op.t ref;  (** the op the last suspended body performed *)
  handler : (unit, step) Effect.Deep.handler;
  events : Event_queue.t;  (* (time, seq) -> tid *)
  mutable seq : int;
  mutable threads : thread array;
      (** indexed by tid, grown by [spawn]; slots from [next_tid] on are
          filler *)
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
  let performed = ref Op.Deadline_pop in
  let handler =
    {
      Effect.Deep.retc = (fun () -> Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Api.Sim_op op ->
              performed := op;
              (suspend : ((a, step) Effect.Deep.continuation -> step) option)
          | _ -> None);
    }
  in
  let fl = { vnow = 0.; start = 0.; d_user = 0.; d_system = 0.; wake = neg_infinity } in
  let t =
  {
    config;
    memory;
    scheduler;
    obs;
    clock = Array.make config.n_cpus 0.;
    user = Array.make config.n_cpus 0.;
    system = Array.make config.n_cpus 0.;
    fl;
    result = 0;
    performed;
    handler;
    events = Event_queue.create ();
    seq = 0;
    threads = [||];
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
  Numa_obs.Hub.set_clock obs (fun () -> fl.vnow);
  t

let obs t = t.obs
let set_turn_hook t hook = t.turn_hook <- Some hook

let set_profile t p =
  t.profile <- Some p;
  Numa_obs.Profile.set_clock p (fun () -> t.fl.vnow)

let profile t = t.profile

let make_lock t ~vpage =
  let id = t.next_sync_id in
  t.next_sync_id <- id + 1;
  Sync.make_lock ~id ~vpage

let make_barrier t ~vpage ~parties =
  let id = t.next_sync_id in
  t.next_sync_id <- id + 1;
  Sync.make_barrier ~id ~vpage ~parties

let finished th = match th.step with Finished -> true | Suspended _ -> false

let continuation th =
  match th.step with Suspended k -> k | Finished -> assert false

(* [th]'s body has just suspended with [k] on the op it performed: make
   that op the thread's current one. *)
let begin_op t th k =
  th.step <- k;
  let op = !(t.performed) in
  th.op <- op;
  match op with
  | Op.Read { count; _ } | Op.Write { count; _ } -> th.refs_left <- count
  | Op.Compute { ns } -> th.times.compute_left <- ns
  | Op.Barrier_wait _ -> th.arrived <- false
  | Op.Lock_acquire _ | Op.Lock_release _ | Op.Syscall _ | Op.Migrate _
  | Op.Sleep_until _ | Op.Deadline_push _ | Op.Deadline_pop ->
      ()

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
      step = Finished;
      op = Op.Deadline_pop;
      refs_left = 0;
      arrived = false;
      gen = 0;
      times = { ready_at = 0.; deadline = infinity; compute_left = 0. };
      deadlines = [];
    }
  in
  if tid = Array.length t.threads then begin
    let grown = Array.make (max 8 (2 * tid)) th in
    Array.blit t.threads 0 grown 0 tid;
    t.threads <- grown
  end;
  t.threads.(tid) <- th;
  t.live <- t.live + 1;
  (* Launch the body up to its first operation right away; the first chunk
     is processed when the run loop reaches the thread's initial event. *)
  (match Effect.Deep.match_with body () t.handler with
  | Finished -> t.live <- t.live - 1
  | Suspended _ as k ->
      begin_op t th k;
      Event_queue.add t.events ~time:0. ~seq:t.seq ~tid;
      t.seq <- t.seq + 1);
  tid

(* During its turn a thread's event stays at the root of the queue. A
   thread that runs again later replaces that root, taking its sequence
   number exactly where a fresh push would: every (time, seq) key is
   unique, so the pop order is the one a pop-then-push cycle gives. *)
let reschedule t th time =
  th.times.ready_at <- time;
  Event_queue.replace_min t.events ~time ~seq:t.seq ~tid:th.tid;
  t.seq <- t.seq + 1

let finish t th =
  th.step <- Finished;
  t.live <- t.live - 1;
  Event_queue.drop_min t.events

let count_event t =
  t.n_events <- t.n_events + 1;
  if t.n_events > t.config.max_events then failwith "Engine.run: event budget exceeded"

let access t th ~cpu ~vpage ~access:a ~count ~value =
  t.memory.Memory_iface.access ~cpu ~tid:th.tid ~vpage ~access:a ~count ~value

(* Up to [chunk_refs] of a [Read]/[Write]'s references. *)
let refs t th ~cpu ~vpage ~access:a ~value =
  let n = Int.min th.refs_left t.config.chunk_refs in
  t.result <- access t th ~cpu ~vpage ~access:a ~count:n ~value;
  th.refs_left <- th.refs_left - n;
  t.fl.d_user <- t.memory.Memory_iface.cost.user_ns;
  t.fl.d_system <- t.memory.Memory_iface.cost.system_ns;
  th.refs_left = 0

(* Process one chunk of [th]'s current op at [t.fl.start] on [cpu]. It
   sets the chunk's outcome in [t.fl] — the user and system time consumed
   on that CPU and, for an op that parks the thread elsewhere or polls, an
   explicit wake time — and returns whether the whole op is now complete,
   with its result in [t.result]. *)
let process_chunk t th ~cpu =
  let fl = t.fl and cost = t.memory.Memory_iface.cost in
  fl.d_user <- 0.;
  fl.d_system <- 0.;
  fl.wake <- neg_infinity;
  t.result <- 0;
  match th.op with
  | Op.Read { vpage; _ } -> refs t th ~cpu ~vpage ~access:Access.Load ~value:0
  | Op.Write { vpage; value; _ } -> refs t th ~cpu ~vpage ~access:Access.Store ~value
  | Op.Compute _ ->
      let slice = fmin th.times.compute_left t.config.compute_slice_ns in
      th.times.compute_left <- th.times.compute_left -. slice;
      (match t.profile with
      | Some p -> Numa_obs.Profile.charge_compute p ~cpu ~tid:th.tid slice
      | None -> ());
      fl.d_user <- slice;
      th.times.compute_left <= 0.
  | Op.Lock_acquire l -> (
      match l.Sync.holder with
      | None ->
          (* Successful test-and-set: a fetch and a store on the lock page. *)
          ignore (access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Load ~count:1 ~value:0);
          let rd_user = cost.user_ns and rd_system = cost.system_ns in
          ignore (access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Store ~count:1 ~value:1);
          Sync.acquire ~obs:t.obs ?profile:t.profile l ~tid:th.tid ~cpu;
          fl.d_user <- rd_user +. cost.user_ns;
          fl.d_system <- rd_system +. cost.system_ns;
          true
      | Some _ ->
          (* Busy: burn one poll interval in user state and try again. *)
          ignore (access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Load ~count:1 ~value:0);
          let rd_user = cost.user_ns in
          fl.d_system <- cost.system_ns;
          Sync.contend ~obs:t.obs l ~tid:th.tid ~cpu;
          fl.d_user <- fmax rd_user t.config.spin_poll_ns;
          (match t.profile with
          | Some p ->
              (* The poll reference itself was charged as a ref by the
                 memory layer; only the poll padding is spin. *)
              Numa_obs.Profile.charge_lock_spin p ~cpu ~tid:th.tid
                ~lock_id:l.Sync.lock_id
                (fl.d_user -. rd_user)
          | None -> ());
          false)
  | Op.Lock_release l ->
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
      ignore (access t th ~cpu ~vpage:l.Sync.lock_vpage ~access:Access.Store ~count:1 ~value:0);
      fl.d_user <- cost.user_ns;
      fl.d_system <- cost.system_ns;
      Sync.release ~obs:t.obs ?profile:t.profile l ~tid:th.tid ~cpu;
      true
  | Op.Barrier_wait b ->
      let vpage = b.Sync.barrier_vpage in
      if not th.arrived then begin
        (* Arrival: read-modify-write of the counter. *)
        ignore (access t th ~cpu ~vpage ~access:Access.Load ~count:1 ~value:0);
        let rd_user = cost.user_ns and rd_system = cost.system_ns in
        ignore
          (access t th ~cpu ~vpage ~access:Access.Store ~count:1 ~value:(b.Sync.arrived + 1));
        fl.d_user <- rd_user +. cost.user_ns;
        fl.d_system <- rd_system +. cost.system_ns;
        th.arrived <- true;
        th.gen <- b.Sync.generation;
        b.Sync.arrived <- b.Sync.arrived + 1;
        let released = b.Sync.arrived = b.Sync.parties in
        if released then begin
          b.Sync.generation <- b.Sync.generation + 1;
          b.Sync.arrived <- 0
        end;
        released
      end
      else begin
        ignore (access t th ~cpu ~vpage ~access:Access.Load ~count:1 ~value:0);
        fl.d_system <- cost.system_ns;
        if b.Sync.generation > th.gen then begin
          (* Release observed on this poll. *)
          fl.d_user <- cost.user_ns;
          true
        end
        else begin
          fl.d_user <- fmax cost.user_ns t.config.spin_poll_ns;
          (match t.profile with
          | Some p ->
              Numa_obs.Profile.charge_barrier_spin p ~cpu ~tid:th.tid
                (fl.d_user -. cost.user_ns)
          | None -> ());
          false
        end
      end
  | Op.Migrate { cpu = target } ->
      if target < 0 || target >= t.config.n_cpus then
        failwith
          (Printf.sprintf "thread %d (%s) migrated to nonexistent cpu %d" th.tid th.name
             target);
      th.cpu <- target;
      (* A reschedule: the thread resumes on the target once it is past
         both its own time and the target's clock; the dispatch work is
         system time there. *)
      let start = fl.start in
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
      fl.wake <- resume;
      true
  | Op.Syscall { service_ns; touch_stack } ->
      let master = if t.config.unix_master then 0 else cpu in
      let start_service = fmax fl.start t.clock.(master) in
      let stack_ns =
        match th.stack_vpage with
        | Some vpage when touch_stack ->
            (* The kernel reads arguments from and writes results to the
               caller's stack while running on the (master) CPU. *)
            ignore (access t th ~cpu:master ~vpage ~access:Access.Load ~count:4 ~value:0);
            let rd_user = cost.user_ns and rd_system = cost.system_ns in
            ignore (access t th ~cpu:master ~vpage ~access:Access.Store ~count:4 ~value:0);
            rd_user +. cost.user_ns +. rd_system +. cost.system_ns
        | Some _ | None -> 0.
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
      fl.wake <- finish;
      true
  | Op.Sleep_until { until_ns } ->
      (* An open-loop timer: park until the virtual deadline without
         touching any CPU clock. A deadline already past resumes at [start]
         (the sleeper was behind, e.g. a serving thread draining a queue
         backlog). The gap, if any, is charged as idle when the thread's
         next chunk finds its event time ahead of the CPU clock. *)
      fl.wake <- fmax fl.start until_ns;
      true
  | Op.Deadline_push { until_ns } ->
      (* Arm a cancellable timer. Free of simulated time: the deadline
         machinery models a kernel timer wheel whose cost is negligible
         next to a single remote reference. Ids are allocated in event
         order, so they are deterministic. *)
      let id = t.next_timer_id in
      t.next_timer_id <- id + 1;
      th.deadlines <- (id, until_ns) :: th.deadlines;
      if until_ns < th.times.deadline then th.times.deadline <- until_ns;
      t.result <- id;
      true
  | Op.Deadline_pop ->
      (match th.deadlines with
      | [] ->
          failwith
            (Printf.sprintf "thread %d (%s) popped a deadline it never pushed" th.tid
               th.name)
      | _ :: rest ->
          th.deadlines <- rest;
          th.times.deadline <- List.fold_left (fun a (_, u) -> Float.min a u) infinity rest);
      true

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

(* One chunk of [th]'s current op at [t.fl.start], accounted on [cpu]. On
   op completion the body resumes to its next op. Returns [true] when that
   op is to run inline, in this same turn, from the new [t.fl.start]. *)
let run_chunk t th ~cpu =
  let fl = t.fl in
  let start = fl.start in
  let completed = process_chunk t th ~cpu in
  t.user.(cpu) <- t.user.(cpu) +. fl.d_user;
  t.system.(cpu) <- t.system.(cpu) +. fl.d_system;
  let parked = fl.wake > neg_infinity in
  let after =
    if parked then fl.wake
    else begin
      (match t.profile with
      | Some p when start > t.clock.(cpu) ->
          (* The thread's event time was ahead of its CPU's clock: the CPU
             sat idle for the difference. *)
          Numa_obs.Profile.charge_idle p ~cpu (start -. t.clock.(cpu))
      | Some _ | None -> ());
      t.clock.(cpu) <- start +. fl.d_user +. fl.d_system;
      t.clock.(cpu)
    end
  in
  fl.vnow <- fmax fl.vnow after;
  if not completed then begin
    reschedule t th after;
    false
  end
  else
    match Effect.Deep.continue (continuation th) t.result with
    | Finished ->
        finish t th;
        false
    | Suspended _ as k ->
        begin_op t th k;
        (* Keep running inline while no other event is due first; avoids
           heap churn for single-threaded phases. *)
        if (not parked) && Event_queue.next_time t.events >= after then begin
          count_event t;
          fl.start <- after;
          true
        end
        else begin
          (* A parked thread (sleep, syscall return) must still observe
             its tightest deadline: wake at the deadline instant instead of
             sleeping through it, so the timer fires exactly on time. *)
          let deadline = th.times.deadline in
          reschedule t th (if after > deadline then fmax start deadline else after);
          false
        end

(* The tightest armed timer has expired: abandon the current operation at
   this chunk boundary and unwind the thread with {!Api.Deadline_exceeded}.
   Scopes armed after the firing timer can no longer pop themselves (the
   unwind bypasses their pop), so they are disarmed here as well; outer
   scopes stay armed. Returns [true] when the thread runs on inline. *)
let fire t th =
  let start = t.fl.start in
  let fired = th.times.deadline in
  let rec split = function
    | [] -> assert false
    | (id, u) :: rest -> if u <= fired then (id, rest) else split rest
  in
  let id, rest = split th.deadlines in
  th.deadlines <- rest;
  th.times.deadline <- List.fold_left (fun a (_, u) -> Float.min a u) infinity rest;
  (* Unwinding may itself perform operations (with_lock releases its lock
     on the way out); they surface here as a fresh suspended op and run at
     [start] — at or after the deadline instant, never before. *)
  match Effect.Deep.discontinue (continuation th) (Api.Deadline_exceeded id) with
  | Finished ->
      finish t th;
      false
  | Suspended _ as k ->
      begin_op t th k;
      if Event_queue.next_time t.events >= start then begin
        count_event t;
        true
      end
      else begin
        reschedule t th start;
        false
      end

(* Process one scheduling turn for [th], whose event is at the root of the
   queue: one chunk; on op completion, resume the thread body (possibly
   through several ops) while no other event is due earlier. The turn ends
   by replacing or dropping that root. *)
let turn t th =
  let cpu = pick_cpu t th in
  let fl = t.fl in
  let start = fmax th.times.ready_at t.clock.(cpu) in
  fl.start <- start;
  (* The virtual clock is monotone: a turn that starts on a CPU whose
     local clock lags another CPU's must not drag [vnow] (and with it
     every observability timestamp) backwards. *)
  fl.vnow <- fmax fl.vnow start;
  (match t.turn_hook with None -> () | Some hook -> hook ~now:fl.vnow);
  if Numa_obs.Hub.enabled t.obs then
    Numa_obs.Hub.emit t.obs
      (Numa_obs.Event.Dispatch { tid = th.tid; cpu; name = th.name });
  let again = ref true in
  while !again do
    again := if fl.start >= th.times.deadline then fire t th else run_chunk t th ~cpu
  done

let run t =
  if t.running || t.completed then invalid_arg "Engine.run: already running";
  t.running <- true;
  let rec loop () =
    let tid = Event_queue.min_tid t.events in
    if tid < 0 then begin
      if t.live > 0 then
        raise
          (Deadlock
             (Printf.sprintf "%d thread(s) blocked with no runnable events" t.live))
    end
    else begin
      count_event t;
      turn t t.threads.(tid);
      loop ()
    end
  in
  loop ();
  t.running <- false;
  t.completed <- true

let now t = t.fl.vnow
let clock_ns t ~cpu = t.clock.(cpu)
let user_ns t ~cpu = t.user.(cpu)
let system_ns t ~cpu = t.system.(cpu)
let total_user_ns t = Array.fold_left ( +. ) 0. t.user
let total_system_ns t = Array.fold_left ( +. ) 0. t.system
let elapsed_ns t = Array.fold_left Float.max 0. t.clock
let n_events t = t.n_events
let n_threads t = t.next_tid

let thread_cpu t ~tid =
  if tid < 0 || tid >= t.next_tid then invalid_arg "Engine.thread_cpu: unknown tid";
  t.threads.(tid).cpu

let rehome t ~tid ~cpu =
  if cpu < 0 || cpu >= t.config.n_cpus then invalid_arg "Engine.rehome: bad cpu";
  if tid < 0 || tid >= t.next_tid then false
  else
    let th = t.threads.(tid) in
    if finished th || th.cpu = cpu then false
    else begin
      (* th.cpu is only read at the start of a scheduling turn
         (pick_cpu), so flipping it between chunks is a clean
         reschedule: the thread's next chunk runs on the target. The
         dispatch costs the same 50 us of system time as a
         self-migration ([Op.Migrate]), charged to the target CPU. *)
      th.cpu <- cpu;
      (match t.profile with
      | Some p -> Numa_obs.Profile.charge_dispatch p ~cpu 50_000.
      | None -> ());
      t.system.(cpu) <- t.system.(cpu) +. 50_000.;
      t.clock.(cpu) <- t.clock.(cpu) +. 50_000.;
      true
    end
