type kernel_cat =
  | Fault_trap
  | Pmap_action
  | Page_copy
  | Zero_fill
  | Tlb_shootdown
  | Disk_read
  | Disk_write
  | Pt_walk
  | Pt_shootdown

let kernel_cat_name = function
  | Fault_trap -> "fault_trap"
  | Pmap_action -> "pmap_action"
  | Page_copy -> "page_copy"
  | Zero_fill -> "zero_fill"
  | Tlb_shootdown -> "tlb_shootdown"
  | Disk_read -> "disk_read"
  | Disk_write -> "disk_write"
  | Pt_walk -> "pt_walk"
  | Pt_shootdown -> "pt_shootdown"

let n_kernel_cats = 9

let kernel_idx = function
  | Fault_trap -> 0
  | Pmap_action -> 1
  | Page_copy -> 2
  | Zero_fill -> 3
  | Tlb_shootdown -> 4
  | Disk_read -> 5
  | Disk_write -> 6
  | Pt_walk -> 7
  | Pt_shootdown -> 8

let kernel_cat_of_idx = function
  | 0 -> Fault_trap
  | 1 -> Pmap_action
  | 2 -> Page_copy
  | 3 -> Zero_fill
  | 4 -> Tlb_shootdown
  | 5 -> Disk_read
  | 6 -> Disk_write
  | 7 -> Pt_walk
  | _ -> Pt_shootdown

type context = App | Daemon | Degradation

let context_name = function
  | App -> "kernel"
  | Daemon -> "daemon"
  | Degradation -> "degradation"

let n_contexts = 3
let ctx_idx = function App -> 0 | Daemon -> 1 | Degradation -> 2
let context_of_idx = function 0 -> App | 1 -> Daemon | _ -> Degradation

let loc_idx : Event.loc -> int = function
  | Event.Local -> 0
  | Event.Global -> 1
  | Event.Remote -> 2

let loc_of_idx = function 0 -> Event.Local | 1 -> Event.Global | _ -> Event.Remote

type lock_stats = {
  mutable spin_ns : float;
  mutable hold_ns : float;
  mutable acquisitions : int;
  mutable held_since : float;  (** < 0 when free *)
}

type t = {
  n_cpus : int;
  n_nodes : int;
  mutable clock : unit -> float;
  mutable ctx : context;
  refs : float array;  (** ((cpu * n_nodes) + dst) * 3 + loc *)
  bus : float array;  (** cpu * n_nodes + dst *)
  kernel : float array;  (** ctx * n_kernel_cats + cat *)
  mutable compute_ns : float;
  mutable lock_spin_ns : float;
  mutable barrier_spin_ns : float;
  mutable syscall_ns : float;
  mutable dispatch_ns : float;
  idle : float array;  (** per cpu *)
  busy : float array;  (** per cpu; every charge except idle lands here too *)
  page_ns : float array;
  mutable thread_ns : float array;
  locks : (int, lock_stats) Hashtbl.t;
  mutable elapsed_ns : float;
  mutable finalized : bool;
  mutable serve_requests : int;
  mutable serve_service_ns : float;
  mutable serve_queue_ns : float;
  mutable res_timeouts : int;
  mutable res_sheds : int;
  mutable res_backoff_ns : float;
  mutable res_hedge_ns : float;
}

let create ~n_cpus ~n_nodes ~n_pages =
  if n_cpus <= 0 then invalid_arg "Profile.create: n_cpus must be positive";
  if n_nodes <= 0 then invalid_arg "Profile.create: n_nodes must be positive";
  {
    n_cpus;
    n_nodes;
    clock = (fun () -> 0.);
    ctx = App;
    refs = Array.make (n_cpus * n_nodes * 3) 0.;
    bus = Array.make (n_cpus * n_nodes) 0.;
    kernel = Array.make (n_contexts * n_kernel_cats) 0.;
    compute_ns = 0.;
    lock_spin_ns = 0.;
    barrier_spin_ns = 0.;
    syscall_ns = 0.;
    dispatch_ns = 0.;
    idle = Array.make n_cpus 0.;
    busy = Array.make n_cpus 0.;
    page_ns = Array.make (max 1 n_pages) 0.;
    thread_ns = Array.make 16 0.;
    locks = Hashtbl.create 16;
    elapsed_ns = 0.;
    finalized = false;
    serve_requests = 0;
    serve_service_ns = 0.;
    serve_queue_ns = 0.;
    res_timeouts = 0;
    res_sheds = 0;
    res_backoff_ns = 0.;
    res_hedge_ns = 0.;
  }

let set_clock t f = t.clock <- f
let context t = t.ctx
let set_context t ctx = t.ctx <- ctx

let touch_page t lpage ns =
  if lpage >= 0 && lpage < Array.length t.page_ns then
    t.page_ns.(lpage) <- t.page_ns.(lpage) +. ns

let touch_thread t tid ns =
  if tid >= 0 then begin
    if tid >= Array.length t.thread_ns then begin
      let grown = Array.make (max (tid + 1) (2 * Array.length t.thread_ns)) 0. in
      Array.blit t.thread_ns 0 grown 0 (Array.length t.thread_ns);
      t.thread_ns <- grown
    end;
    t.thread_ns.(tid) <- t.thread_ns.(tid) +. ns
  end

let charge_ref t ~cpu ~dst ~loc ~lpage ~tid ns =
  t.refs.((((cpu * t.n_nodes) + dst) * 3) + loc_idx loc) <-
    t.refs.((((cpu * t.n_nodes) + dst) * 3) + loc_idx loc) +. ns;
  t.busy.(cpu) <- t.busy.(cpu) +. ns;
  touch_page t lpage ns;
  touch_thread t tid ns

let charge_bus t ~cpu ~dst ~lpage ns =
  t.bus.((cpu * t.n_nodes) + dst) <- t.bus.((cpu * t.n_nodes) + dst) +. ns;
  t.busy.(cpu) <- t.busy.(cpu) +. ns;
  touch_page t lpage ns

let charge_kernel t ~cpu ~ctx ~cat ~lpage ns =
  let i = (ctx_idx ctx * n_kernel_cats) + kernel_idx cat in
  t.kernel.(i) <- t.kernel.(i) +. ns;
  t.busy.(cpu) <- t.busy.(cpu) +. ns;
  touch_page t lpage ns

let charge_compute t ~cpu ~tid ns =
  t.compute_ns <- t.compute_ns +. ns;
  t.busy.(cpu) <- t.busy.(cpu) +. ns;
  touch_thread t tid ns

let lock_stats t lock_id =
  match Hashtbl.find_opt t.locks lock_id with
  | Some ls -> ls
  | None ->
      let ls = { spin_ns = 0.; hold_ns = 0.; acquisitions = 0; held_since = -1. } in
      Hashtbl.replace t.locks lock_id ls;
      ls

let charge_lock_spin t ~cpu ~tid ~lock_id ns =
  t.lock_spin_ns <- t.lock_spin_ns +. ns;
  t.busy.(cpu) <- t.busy.(cpu) +. ns;
  let ls = lock_stats t lock_id in
  ls.spin_ns <- ls.spin_ns +. ns;
  touch_thread t tid ns

let charge_barrier_spin t ~cpu ~tid ns =
  t.barrier_spin_ns <- t.barrier_spin_ns +. ns;
  t.busy.(cpu) <- t.busy.(cpu) +. ns;
  touch_thread t tid ns

let charge_syscall t ~cpu ns =
  t.syscall_ns <- t.syscall_ns +. ns;
  t.busy.(cpu) <- t.busy.(cpu) +. ns

let charge_dispatch t ~cpu ns =
  t.dispatch_ns <- t.dispatch_ns +. ns;
  t.busy.(cpu) <- t.busy.(cpu) +. ns

let charge_idle t ~cpu ns = t.idle.(cpu) <- t.idle.(cpu) +. ns

(* Side attribution like [touch_page]: the request's service time is
   already charged to the cpu by the ops that made it up, so this must not
   touch [busy] — it only splits the serving latency into its two halves. *)
let note_request t ~service_ns ~queue_ns =
  t.serve_requests <- t.serve_requests + 1;
  t.serve_service_ns <- t.serve_service_ns +. service_ns;
  t.serve_queue_ns <- t.serve_queue_ns +. queue_ns

(* Same side-attribution discipline: the resilience machinery's time (the
   backoff sleeps, the hedged attempt's work) is already on the clocks;
   these only label how much of it was retry/hedge/shed overhead. *)
let note_timeout t = t.res_timeouts <- t.res_timeouts + 1
let note_shed t = t.res_sheds <- t.res_sheds + 1
let note_backoff t ns = t.res_backoff_ns <- t.res_backoff_ns +. ns
let note_hedge t ns = t.res_hedge_ns <- t.res_hedge_ns +. ns

let lock_acquired t ~lock_id =
  let ls = lock_stats t lock_id in
  ls.acquisitions <- ls.acquisitions + 1;
  ls.held_since <- t.clock ()

let lock_released t ~lock_id =
  let ls = lock_stats t lock_id in
  if ls.held_since >= 0. then begin
    ls.hold_ns <- ls.hold_ns +. (t.clock () -. ls.held_since);
    ls.held_since <- -1.
  end

(* --- conservation ------------------------------------------------------- *)

let attributed_ns t ~cpu = t.busy.(cpu) +. t.idle.(cpu)

let finalize t ~elapsed_ns =
  if not t.finalized then begin
    t.elapsed_ns <- elapsed_ns;
    for cpu = 0 to t.n_cpus - 1 do
      let tail = elapsed_ns -. attributed_ns t ~cpu in
      if tail > 0. then t.idle.(cpu) <- t.idle.(cpu) +. tail
    done;
    t.finalized <- true
  end

let check_conservation t ~clocks ~elapsed_ns =
  (* Charges are sums of (mostly integer-valued) costs the engine also
     added to the clocks, just in a different association order; the slack
     only has to cover float rounding, not modelling error. *)
  let eps = 1e-6 *. (elapsed_ns +. 1.) in
  let err = ref None in
  for cpu = 0 to t.n_cpus - 1 do
    if !err = None then begin
      let attributed = attributed_ns t ~cpu in
      let expect = if t.finalized then elapsed_ns else clocks.(cpu) in
      if Float.abs (attributed -. expect) > eps then
        err :=
          Some
            (Printf.sprintf
               "cpu %d: attributed %.3f ns but clock says %.3f ns (busy %.3f, idle %.3f)"
               cpu attributed expect t.busy.(cpu) t.idle.(cpu))
    end
  done;
  match !err with Some e -> Error e | None -> Ok ()

(* --- export ------------------------------------------------------------- *)

type tree_node = { label : string; ns : float; children : (string * float) list }

type serve_split = { requests : int; service_ns : float; queue_ns : float }

type resilience_split = {
  timeouts : int;
  sheds : int;
  backoff_ns : float;
  hedge_ns : float;
}

type snapshot = {
  elapsed_ns : float;
  n_cpus : int;
  attributed_ns_total : float;
  busy_ns_total : float;
  idle_ns_total : float;
  categories : tree_node list;
  hot_pages : (int * float) list;
  hot_locks : (int * float * float * int) list;
  hot_links : (int * int * float) list;
  hot_threads : (int * float) list;
  serve : serve_split option;
  resilience : resilience_split option;
}

let sum = Array.fold_left ( +. ) 0.

let desc_children kvs =
  List.sort (fun (_, a) (_, b) -> compare (b : float) a) (List.filter (fun (_, v) -> v > 0.) kvs)

let top_k k kvs cmp =
  let sorted = List.sort cmp kvs in
  List.filteri (fun i _ -> i < k) sorted

let snapshot ?(top = 10) (t : t) =
  let refs_by_loc = Array.make 3 0. in
  let link = Array.make (t.n_cpus * t.n_nodes) 0. in
  Array.iteri
    (fun i ns ->
      let loc = i mod 3 and pair = i / 3 in
      refs_by_loc.(loc) <- refs_by_loc.(loc) +. ns;
      let cpu = pair / t.n_nodes and dst = pair mod t.n_nodes in
      if cpu <> dst then link.(pair) <- link.(pair) +. ns)
    t.refs;
  Array.iteri
    (fun pair ns ->
      let cpu = pair / t.n_nodes and dst = pair mod t.n_nodes in
      if cpu <> dst then link.(pair) <- link.(pair) +. ns)
    t.bus;
  let refs_node =
    {
      label = "refs";
      ns = sum t.refs;
      children =
        desc_children
          (List.init 3 (fun l -> (Event.loc_to_string (loc_of_idx l), refs_by_loc.(l))));
    }
  in
  let bus_node =
    let children =
      List.concat
        (List.init t.n_cpus (fun cpu ->
             List.init t.n_nodes (fun dst ->
                 ( Printf.sprintf "%d->%d" cpu dst,
                   t.bus.((cpu * t.n_nodes) + dst) ))))
    in
    { label = "bus"; ns = sum t.bus; children = desc_children children }
  in
  let kernel_nodes =
    List.init n_contexts (fun c ->
        let children =
          List.init n_kernel_cats (fun k ->
              ( kernel_cat_name (kernel_cat_of_idx k),
                t.kernel.((c * n_kernel_cats) + k) ))
        in
        {
          label = context_name (context_of_idx c);
          ns = sum (Array.sub t.kernel (c * n_kernel_cats) n_kernel_cats);
          children = desc_children children;
        })
  in
  let sync_node =
    {
      label = "sync";
      ns = t.lock_spin_ns +. t.barrier_spin_ns;
      children =
        desc_children
          [ ("lock_spin", t.lock_spin_ns); ("barrier_spin", t.barrier_spin_ns) ];
    }
  in
  let leaf label ns = { label; ns; children = [] } in
  let categories =
    List.filter
      (fun n -> n.ns > 0. || n.label = "refs" || n.label = "idle")
      ([ refs_node; bus_node ]
      @ kernel_nodes
      @ [
          leaf "compute" t.compute_ns;
          sync_node;
          leaf "syscall" t.syscall_ns;
          leaf "dispatch" t.dispatch_ns;
          leaf "idle" (sum t.idle);
        ])
  in
  let hot_pages =
    let kvs = ref [] in
    Array.iteri (fun p ns -> if ns > 0. then kvs := (p, ns) :: !kvs) t.page_ns;
    top_k top !kvs (fun (_, a) (_, b) -> compare (b : float) a)
  in
  let hot_threads =
    let kvs = ref [] in
    Array.iteri (fun tid ns -> if ns > 0. then kvs := (tid, ns) :: !kvs) t.thread_ns;
    top_k top !kvs (fun (_, a) (_, b) -> compare (b : float) a)
  in
  let hot_locks =
    let kvs =
      Hashtbl.fold
        (fun id ls acc -> (id, ls.spin_ns, ls.hold_ns, ls.acquisitions) :: acc)
        t.locks []
    in
    top_k top kvs (fun (ia, sa, ha, _) (ib, sb, hb, _) ->
        let c = compare (sb : float) sa in
        if c <> 0 then c
        else
          let c = compare (hb : float) ha in
          if c <> 0 then c else compare (ia : int) ib)
  in
  let hot_links =
    let kvs = ref [] in
    Array.iteri
      (fun pair ns ->
        if ns > 0. then kvs := (pair / t.n_nodes, pair mod t.n_nodes, ns) :: !kvs)
      link;
    top_k top !kvs (fun (sa, da, a) (sb, db, b) ->
        let c = compare (b : float) a in
        if c <> 0 then c else compare (sa, da) (sb, db))
  in
  {
    elapsed_ns = t.elapsed_ns;
    n_cpus = t.n_cpus;
    attributed_ns_total = sum t.busy +. sum t.idle;
    busy_ns_total = sum t.busy;
    idle_ns_total = sum t.idle;
    categories;
    hot_pages;
    hot_locks;
    hot_threads;
    hot_links;
    serve =
      (if t.serve_requests = 0 then None
       else
         Some
           {
             requests = t.serve_requests;
             service_ns = t.serve_service_ns;
             queue_ns = t.serve_queue_ns;
           });
    resilience =
      (if
         t.res_timeouts = 0 && t.res_sheds = 0 && t.res_backoff_ns = 0.
         && t.res_hedge_ns = 0.
       then None
       else
         Some
           {
             timeouts = t.res_timeouts;
             sheds = t.res_sheds;
             backoff_ns = t.res_backoff_ns;
             hedge_ns = t.res_hedge_ns;
           });
  }

let render s =
  let buf = Buffer.create 2048 in
  let total = Float.max s.attributed_ns_total 1e-9 in
  Buffer.add_string buf
    (Printf.sprintf
       "# profile: %d cpus, elapsed %.6f s, attributed %.6f cpu-s (busy %.6f, idle %.6f)\n"
       s.n_cpus (s.elapsed_ns /. 1e9)
       (s.attributed_ns_total /. 1e9)
       (s.busy_ns_total /. 1e9) (s.idle_ns_total /. 1e9));
  Buffer.add_string buf
    (Printf.sprintf "# %-28s %14s %8s\n" "category" "cpu-seconds" "share");
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "%-30s %14.6f %7.2f%%\n" n.label (n.ns /. 1e9)
           (100. *. n.ns /. total));
      List.iter
        (fun (child, ns) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-28s %14.6f %7.2f%%\n" child (ns /. 1e9)
               (100. *. ns /. total)))
        n.children)
    s.categories;
  let section name rows render_row =
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "# %s\n" name);
      List.iter (fun r -> Buffer.add_string buf (render_row r)) rows
    end
  in
  section "hot pages" s.hot_pages (fun (p, ns) ->
      Printf.sprintf "  lpage %-6d %14.6f\n" p (ns /. 1e9));
  section "hot locks (spin / hold seconds, acquisitions)" s.hot_locks
    (fun (id, spin, hold, acqs) ->
      Printf.sprintf "  lock %-6d %14.6f %14.6f %8d\n" id (spin /. 1e9) (hold /. 1e9)
        acqs);
  section "hot links" s.hot_links (fun (src, dst, ns) ->
      Printf.sprintf "  %d->%-6d %14.6f\n" src dst (ns /. 1e9));
  section "hot threads" s.hot_threads (fun (tid, ns) ->
      Printf.sprintf "  tid %-7d %14.6f\n" tid (ns /. 1e9));
  (match s.serve with
  | None -> ()
  | Some sv ->
      (* Wall-latency split, not cpu time: the service half is already in
         the categories above; the queueing half is time spent waiting. *)
      Buffer.add_string buf
        (Printf.sprintf "# serving (request latency split, %d requests)\n" sv.requests);
      Buffer.add_string buf
        (Printf.sprintf "  service      %14.6f\n" (sv.service_ns /. 1e9));
      Buffer.add_string buf
        (Printf.sprintf "  queueing     %14.6f\n" (sv.queue_ns /. 1e9)));
  (match s.resilience with
  | None -> ()
  | Some r ->
      Buffer.add_string buf
        (Printf.sprintf "# resilience (%d timeouts, %d shed)\n" r.timeouts r.sheds);
      Buffer.add_string buf
        (Printf.sprintf "  retry backoff %13.6f\n" (r.backoff_ns /. 1e9));
      Buffer.add_string buf
        (Printf.sprintf "  hedged work  %14.6f\n" (r.hedge_ns /. 1e9)));
  Buffer.contents buf

let folded s =
  let buf = Buffer.create 1024 in
  List.iter
    (fun n ->
      match n.children with
      | [] -> if n.ns > 0. then Buffer.add_string buf (Printf.sprintf "%s %.0f\n" n.label n.ns)
      | children ->
          let child_sum = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. children in
          let self = n.ns -. child_sum in
          if self > 0.5 then
            Buffer.add_string buf (Printf.sprintf "%s %.0f\n" n.label self);
          List.iter
            (fun (child, ns) ->
              if ns > 0. then
                Buffer.add_string buf (Printf.sprintf "%s;%s %.0f\n" n.label child ns))
            children)
    s.categories;
  (match s.serve with
  | None -> ()
  | Some sv ->
      if sv.service_ns > 0. then
        Buffer.add_string buf (Printf.sprintf "serve;service %.0f\n" sv.service_ns);
      if sv.queue_ns > 0. then
        Buffer.add_string buf (Printf.sprintf "serve;queue %.0f\n" sv.queue_ns));
  (match s.resilience with
  | None -> ()
  | Some r ->
      if r.backoff_ns > 0. then
        Buffer.add_string buf (Printf.sprintf "resilience;backoff %.0f\n" r.backoff_ns);
      if r.hedge_ns > 0. then
        Buffer.add_string buf (Printf.sprintf "resilience;hedge %.0f\n" r.hedge_ns));
  Buffer.contents buf

let snapshot_to_json s =
  Json.Obj
    ([
      ("elapsed_ns", Json.Float s.elapsed_ns);
      ("n_cpus", Json.Int s.n_cpus);
      ("attributed_ns", Json.Float s.attributed_ns_total);
      ("busy_ns", Json.Float s.busy_ns_total);
      ("idle_ns", Json.Float s.idle_ns_total);
      ( "categories",
        Json.Obj
          (List.map
             (fun n ->
               ( n.label,
                 Json.Obj
                   (("total_ns", Json.Float n.ns)
                   :: List.map (fun (c, ns) -> (c, Json.Float ns)) n.children) ))
             s.categories) );
      ( "hot_pages",
        Json.List
          (List.map
             (fun (p, ns) -> Json.Obj [ ("lpage", Json.Int p); ("ns", Json.Float ns) ])
             s.hot_pages) );
      ( "hot_locks",
        Json.List
          (List.map
             (fun (id, spin, hold, acqs) ->
               Json.Obj
                 [
                   ("lock", Json.Int id);
                   ("spin_ns", Json.Float spin);
                   ("hold_ns", Json.Float hold);
                   ("acquisitions", Json.Int acqs);
                 ])
             s.hot_locks) );
      ( "hot_links",
        Json.List
          (List.map
             (fun (src, dst, ns) ->
               Json.Obj
                 [ ("src", Json.Int src); ("dst", Json.Int dst); ("ns", Json.Float ns) ])
             s.hot_links) );
      ( "hot_threads",
        Json.List
          (List.map
             (fun (tid, ns) -> Json.Obj [ ("tid", Json.Int tid); ("ns", Json.Float ns) ])
             s.hot_threads) );
    ]
    @
    (* Appended only for served-traffic runs: batch-app profiles keep the
       exact key set (and bytes) of earlier releases. *)
    (match s.serve with
    | None -> []
    | Some sv ->
        [
          ( "serve",
            Json.Obj
              [
                ("requests", Json.Int sv.requests);
                ("service_ns", Json.Float sv.service_ns);
                ("queue_ns", Json.Float sv.queue_ns);
              ] );
        ])
    @
    match s.resilience with
    | None -> []
    | Some r ->
        [
          ( "resilience",
            Json.Obj
              [
                ("timeouts", Json.Int r.timeouts);
                ("sheds", Json.Int r.sheds);
                ("backoff_ns", Json.Float r.backoff_ns);
                ("hedge_ns", Json.Float r.hedge_ns);
              ] );
        ])
