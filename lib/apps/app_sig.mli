(** Interface every application program implements.

    [setup] allocates the program's memory regions and spawns its threads
    against a fresh {!Numa_system.System.t}; the caller then runs the
    system. Programs must perform the same total work regardless of the
    thread count — the requirement of the paper's evaluation method
    (section 3.1) — so that T_local (1 thread, 1 CPU) is comparable with
    the multiprocessor runs. *)

type params = {
  nthreads : int;
  scale : float;  (** problem-size multiplier; 1.0 = the default size *)
  seed : int64;  (** drives any randomised workload structure *)
}

type t = {
  name : string;
  description : string;
  fetch_dominated : bool;
      (** true for programs that do almost all fetches and no stores; the
          model then uses the G/L fetch ratio 2.3 instead of the mixed 2.0
          (Table 3, footnote 3) *)
  setup : Numa_system.System.t -> params -> unit;
}
