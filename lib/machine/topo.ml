type t = {
  name : string;
  cpu_nodes : int;
  mem_node : int option;
  pool_pages : int array;
  fetch_ns : float array array;
  store_ns : float array array;
  link_words_per_ns : float array array option;
}

type place = Node of int | Shared of int

let n_nodes t = Array.length t.fetch_ns
let cpu_nodes t = t.cpu_nodes
let mem_node t = t.mem_node
let name t = t.name

let pool_pages t ~node =
  if node < 0 || node >= t.cpu_nodes then invalid_arg "Topo.pool_pages: bad node";
  t.pool_pages.(node)

(* Inlined so that the latency read on every walk and charge stays an
   unboxed float at the call site. *)
let[@inline] fetch_ns t ~from ~at = t.fetch_ns.(from).(at)
let[@inline] store_ns t ~from ~at = t.store_ns.(from).(at)

let link_words_per_ns t ~from ~at =
  match t.link_words_per_ns with
  | None -> None
  | Some m ->
      let bw = m.(from).(at) in
      if bw > 0. then Some bw else None

let global_home t ~lpage =
  match t.mem_node with Some m -> m | None -> lpage mod t.cpu_nodes

let place_node t = function
  | Node n -> n
  | Shared lpage -> global_home t ~lpage

(* The reporting buckets stay the paper's three classes even on machines
   where the shared level is striped over CPU-node memories: a reference
   to the shared level counts as In_global regardless of which physical
   node happens to hold the stripe (the precise latency is still taken
   from the matrix entry for that node). *)
let classify _t ~cpu = function
  | Shared _ -> Location.In_global
  | Node n -> if n = cpu then Location.Local_here else Location.Remote_local

let nearest_cpu t ~from ~ok =
  let best = ref None in
  for node = 0 to t.cpu_nodes - 1 do
    if ok node then begin
      let d = t.fetch_ns.(from).(node) in
      match !best with
      | Some (_, d') when d >= d' -> ()
      | _ -> best := Some (node, d)
    end
  done;
  Option.map fst !best

let two_level ~name ~n_cpus ~pool_pages ~local_fetch_ns ~local_store_ns ~global_fetch_ns
    ~global_store_ns ~remote_fetch_ns ~remote_store_ns () =
  let n = n_cpus + 1 in
  let mem = n_cpus in
  let matrix ~local ~global ~remote =
    Array.init n (fun from ->
        Array.init n (fun at ->
            if at = mem || from = mem then global
            else if from = at then local
            else remote))
  in
  {
    name;
    cpu_nodes = n_cpus;
    mem_node = Some mem;
    pool_pages = Array.make n_cpus pool_pages;
    fetch_ns =
      matrix ~local:local_fetch_ns ~global:global_fetch_ns ~remote:remote_fetch_ns;
    store_ns =
      matrix ~local:local_store_ns ~global:global_store_ns ~remote:remote_store_ns;
    link_words_per_ns = None;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = n_nodes t in
  let square m = Array.length m = n && Array.for_all (fun row -> Array.length row = n) m in
  let all_positive m = Array.for_all (Array.for_all (fun x -> x > 0.)) m in
  let all_non_negative m = Array.for_all (Array.for_all (fun x -> x >= 0.)) m in
  if t.cpu_nodes <= 0 then err "cpu_nodes must be positive (got %d)" t.cpu_nodes
  else if n < t.cpu_nodes then
    err "latency matrix is %dx%d but the machine has %d CPU nodes" n n t.cpu_nodes
  else if not (square t.fetch_ns) then err "fetch_ns matrix is not square %dx%d" n n
  else if not (square t.store_ns) then
    err "store_ns matrix does not match fetch_ns (%dx%d)" n n
  else if not (all_positive t.fetch_ns && all_positive t.store_ns) then
    err "latency matrix entries (including diagonals) must be positive"
  else if
    match t.mem_node with
    | None -> n <> t.cpu_nodes
    | Some m -> m < t.cpu_nodes || m >= n
  then
    err
      "mem_node must name a memory-only node in [%d, %d) (or be absent on an \
       all-CPU-node machine)"
      t.cpu_nodes n
  else if Array.length t.pool_pages <> t.cpu_nodes then
    err "pool_pages has %d entries for %d CPU nodes" (Array.length t.pool_pages)
      t.cpu_nodes
  else if not (Array.for_all (fun p -> p >= 0) t.pool_pages) then
    err "pool_pages entries must be non-negative"
  else
    match t.link_words_per_ns with
    | None -> Ok t
    | Some m ->
        if not (square m) then err "link bandwidth matrix is not %dx%d" n n
        else if not (all_non_negative m) then
          err "link bandwidths must be non-negative (0 = unmodelled link)"
        else Ok t

let pp ppf t =
  Format.fprintf ppf "%s: %d nodes (%d CPU%s)" t.name (n_nodes t) t.cpu_nodes
    (match t.mem_node with
    | Some m -> Printf.sprintf ", shared memory on node %d" m
    | None -> ", shared level striped over CPU nodes")
