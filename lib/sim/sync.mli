(** Synchronisation objects for simulated threads.

    Matching the paper's applications, locks are non-blocking spin locks
    and barriers are spin barriers: waiting threads burn user time polling,
    and every poll is a real memory reference to the object's page — so a
    lock word that gets pinned into global memory makes every subsequent
    acquisition more expensive, exactly as on the ACE.

    The engine drives all state transitions through {!acquire} /
    {!contend} / {!release}, which also emit lock events when the
    observability hub has a sink attached. *)

type lock = {
  lock_id : int;
  lock_vpage : int;  (** the page holding the lock word *)
  mutable holder : int option;  (** tid of the current holder *)
  mutable acquisitions : int;
  mutable contended_polls : int;  (** failed test-and-set attempts *)
}

type barrier = {
  barrier_id : int;
  barrier_vpage : int;  (** the page holding the arrival counter *)
  parties : int;
  mutable arrived : int;
  mutable generation : int;  (** bumped on each release *)
}

val make_lock : id:int -> vpage:int -> lock
val make_barrier : id:int -> vpage:int -> parties:int -> barrier

val acquire :
  obs:Numa_obs.Hub.t -> ?profile:Numa_obs.Profile.t -> lock -> tid:int -> cpu:int -> unit
(** Successful test-and-set: record the holder, bump the acquisition count
    and (when a sink is listening) emit {!Numa_obs.Event.Lock_acquired}.
    [profile] opens a hold interval stamped from the profiler clock. *)

val contend : obs:Numa_obs.Hub.t -> lock -> tid:int -> cpu:int -> unit
(** Failed test-and-set poll: bump the contention count and emit
    {!Numa_obs.Event.Lock_contended}. *)

val release :
  obs:Numa_obs.Hub.t -> ?profile:Numa_obs.Profile.t -> lock -> tid:int -> cpu:int -> unit
(** Clear the holder and emit {!Numa_obs.Event.Lock_released}, so the
    event stream brackets every hold interval; [profile] closes the
    interval opened by {!acquire}. *)
