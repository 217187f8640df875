type lock = {
  lock_id : int;
  lock_vpage : int;
  mutable holder : int option;
  mutable acquisitions : int;
  mutable contended_polls : int;
}

type barrier = {
  barrier_id : int;
  barrier_vpage : int;
  parties : int;
  mutable arrived : int;
  mutable generation : int;
}

let make_lock ~id ~vpage =
  { lock_id = id; lock_vpage = vpage; holder = None; acquisitions = 0; contended_polls = 0 }

let make_barrier ~id ~vpage ~parties =
  if parties <= 0 then invalid_arg "Sync.make_barrier: parties must be positive";
  { barrier_id = id; barrier_vpage = vpage; parties; arrived = 0; generation = 0 }

(* State transitions live here so the counters and the observability events
   can never disagree about what happened to the lock. *)

let acquire ~obs ?profile l ~tid ~cpu =
  l.holder <- Some tid;
  l.acquisitions <- l.acquisitions + 1;
  (match profile with
  | Some p -> Numa_obs.Profile.lock_acquired p ~lock_id:l.lock_id
  | None -> ());
  if Numa_obs.Hub.enabled obs then
    Numa_obs.Hub.emit obs (Numa_obs.Event.Lock_acquired { lock_id = l.lock_id; cpu; tid })

let contend ~obs l ~tid ~cpu =
  l.contended_polls <- l.contended_polls + 1;
  if Numa_obs.Hub.enabled obs then
    Numa_obs.Hub.emit obs (Numa_obs.Event.Lock_contended { lock_id = l.lock_id; cpu; tid })

let release ~obs ?profile l ~tid ~cpu =
  l.holder <- None;
  (match profile with
  | Some p -> Numa_obs.Profile.lock_released p ~lock_id:l.lock_id
  | None -> ());
  if Numa_obs.Hub.enabled obs then
    Numa_obs.Hub.emit obs (Numa_obs.Event.Lock_released { lock_id = l.lock_id; cpu; tid })
