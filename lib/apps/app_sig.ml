type params = { nthreads : int; scale : float; seed : int64 }

type t = {
  name : string;
  description : string;
  fetch_dominated : bool;
  setup : Numa_system.System.t -> params -> unit;
}
