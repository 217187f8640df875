module Profile = Numa_obs.Profile
module Hub = Numa_obs.Hub
module Event = Numa_obs.Event

type state = Empty | Reading | Clean | Dirty | Writeback

let state_name = function
  | Empty -> "empty"
  | Reading -> "reading"
  | Clean -> "clean"
  | Dirty -> "dirty"
  | Writeback -> "writeback"

(* One backing-store entry per logical page. [redirtied] is only
   meaningful in Writeback: a store raced the in-flight disk write, so
   completion lands back in Dirty instead of Clean. [last_use] is a tick
   of the structure's own monotone use clock (bumped on every fault-time
   touch), which the LRU-approx victim policy compares. *)
type entry = { mutable st : state; mutable redirtied : bool; mutable last_use : int }

type stats = {
  page_ins : int;
  writebacks_started : int;
  writebacks_completed : int;
  writebacks_canceled : int;
  sync_writebacks : int;
  redirtied : int;
  clean_evictions : int;
  dirty_evictions : int;
  disk_read_ns : float;
  disk_write_ns : float;
  n_clean : int;
  n_dirty : int;
  n_writeback : int;
}

(* Disk time in a record of floats only, whose fields are stored unboxed:
   an update allocates nothing. *)
type disk_totals = { mutable read_total : float; mutable write_total : float }

type t = {
  config : Config.t;
  topo : Topo.t;
  sink : Cost_sink.t option;
  obs : Hub.t;
  entries : entry array;
  wb_done_at : float array;
      (** lpage -> when its in-flight writeback completes; a float array
          stores it unboxed, so setting it allocates nothing *)
  mutable in_flight : int array;
      (** the lpages in Writeback, oldest first: a stack, so starting a
          writeback conses nothing *)
  mutable n_in_flight : int;
  mutable wb_cursor : int;  (* round-robin start of the dirty scan *)
  mutable use_clock : int;
  mutable page_ins : int;
  mutable writebacks_started : int;
  mutable writebacks_completed : int;
  mutable writebacks_canceled : int;
  mutable sync_writebacks : int;
  mutable redirtied_count : int;
  mutable clean_evictions : int;
  mutable dirty_evictions : int;
  disk : disk_totals;
}

let create ?sink ?obs ~(config : Config.t) () =
  {
    config;
    topo = Config.topology config;
    sink;
    obs = (match obs with Some h -> h | None -> Hub.create ());
    entries =
      Array.init config.Config.global_pages (fun _ ->
          { st = Empty; redirtied = false; last_use = 0 });
    wb_done_at = Array.make config.Config.global_pages 0.;
    in_flight = [||];
    n_in_flight = 0;
    wb_cursor = 0;
    use_clock = 0;
    page_ins = 0;
    writebacks_started = 0;
    writebacks_completed = 0;
    writebacks_canceled = 0;
    sync_writebacks = 0;
    redirtied_count = 0;
    clean_evictions = 0;
    dirty_evictions = 0;
    disk = { read_total = 0.; write_total = 0. };
  }

let entry t ~lpage =
  if lpage < 0 || lpage >= Array.length t.entries then
    invalid_arg (Printf.sprintf "Paging: lpage %d out of range" lpage);
  t.entries.(lpage)

let state t ~lpage = (entry t ~lpage).st
let n_pages t = Array.length t.entries
let in_flight_lpages t =
  let l = ref [] in
  for i = 0 to t.n_in_flight - 1 do
    l := t.in_flight.(i) :: !l
  done;
  !l

let iter_held t f =
  for lpage = 0 to Array.length t.entries - 1 do
    if t.entries.(lpage).st <> Empty then f lpage
  done

let[@inline] charge t ~by_cpu ~cat ~lpage ns =
  match t.sink with
  | Some s -> Cost_sink.add s ~cpu:by_cpu ~cat ~lpage ns
  | None -> ()

let[@inline] read_cost t ~lpage = Cost.disk_read_ns t.config ~topo:t.topo ~lpage
let[@inline] write_cost t ~lpage = Cost.disk_write_ns t.config ~topo:t.topo ~lpage

let bad t ~lpage ~op =
  invalid_arg
    (Printf.sprintf "Paging.%s: lpage %d is %s" op lpage
       (state_name (entry t ~lpage).st))

let touch t ~lpage =
  t.use_clock <- t.use_clock + 1;
  (entry t ~lpage).last_use <- t.use_clock

let last_use t ~lpage = (entry t ~lpage).last_use

(* Transitions. Each function implements exactly the arrows of the state
   diagram (DESIGN.md section 9); anything else raises, and the Invariant
   checker re-verifies the reachable-state side conditions after the fact. *)

let begin_read t ~lpage =
  let e = entry t ~lpage in
  (* Dirty -> Reading covers re-installing content over a zero-filled
     entry that was never entered (the pager overwrites it wholesale). *)
  match e.st with
  | Empty | Dirty ->
      e.st <- Reading;
      e.redirtied <- false
  | Reading | Clean | Writeback -> bad t ~lpage ~op:"begin_read"

let end_read t ~lpage =
  let e = entry t ~lpage in
  match e.st with
  | Reading ->
      e.st <- Clean;
      t.page_ins <- t.page_ins + 1;
      t.disk.read_total <- t.disk.read_total +. read_cost t ~lpage;
      if Hub.enabled t.obs then Hub.emit t.obs (Event.Page_in { lpage })
  | Empty | Clean | Dirty | Writeback -> bad t ~lpage ~op:"end_read"

let note_zero_fill t ~lpage =
  let e = entry t ~lpage in
  match e.st with
  | Empty | Dirty -> e.st <- Dirty
  | Reading | Clean | Writeback -> bad t ~lpage ~op:"note_zero_fill"

let mark_dirty t ~lpage =
  let e = entry t ~lpage in
  match e.st with
  (* A store can reach an Empty entry when the pmap layer is driven
     without the VM object tier (the protocol property tests): the page is
     implicitly born dirty, exactly like a zero-fill. Under the full
     stack the Invariant checker still rejects mappings into Empty. *)
  | Empty -> e.st <- Dirty
  | Reading -> ()  (* the page-in DMA itself landing; not a mutation *)
  | Clean -> e.st <- Dirty
  | Dirty -> ()
  | Writeback ->
      if not e.redirtied then begin
        e.redirtied <- true;
        t.redirtied_count <- t.redirtied_count + 1
      end

(* A frame whose disk I/O is in flight must never be claimed: Reading and
   Writeback are the RWLock-style pending states. *)
let evictable t ~lpage =
  match (entry t ~lpage).st with
  | Clean | Dirty -> true
  | Empty | Reading | Writeback -> false

let start_writeback t ~lpage ~now ~by_cpu =
  let e = entry t ~lpage in
  match e.st with
  | Dirty ->
      (* Dirty is the only entry arrow into Writeback, which is what makes
         "Writeback implies previously Dirty" structural. *)
      e.st <- Writeback;
      e.redirtied <- false;
      let ns = write_cost t ~lpage in
      t.wb_done_at.(lpage) <- now +. ns;
      if t.n_in_flight = Array.length t.in_flight then
        t.in_flight <- Rows.fit t.in_flight t.n_in_flight lpage;
      t.in_flight.(t.n_in_flight) <- lpage;
      t.n_in_flight <- t.n_in_flight + 1;
      t.writebacks_started <- t.writebacks_started + 1;
      t.disk.write_total <- t.disk.write_total +. ns;
      charge t ~by_cpu ~cat:Profile.Disk_write ~lpage ns;
      if Hub.enabled t.obs then Hub.emit t.obs (Event.Writeback_started { lpage })
  | Empty | Reading | Clean | Writeback -> bad t ~lpage ~op:"start_writeback"

let complete_one t lpage =
  let e = entry t ~lpage in
  let redirtied = e.redirtied in
  e.st <- (if redirtied then Dirty else Clean);
  e.redirtied <- false;
  t.writebacks_completed <- t.writebacks_completed + 1;
  if Hub.enabled t.obs then Hub.emit t.obs (Event.Writeback_done { lpage; redirtied })

(* Due writebacks land newest first, which fixes the order of their
   events. Landing one leaves its deadline alone, so the second pass,
   which keeps the rest oldest first, sees the same ones due. *)
let complete_due t ~now =
  let due = ref 0 in
  for i = t.n_in_flight - 1 downto 0 do
    let lpage = t.in_flight.(i) in
    if t.wb_done_at.(lpage) <= now then begin
      complete_one t lpage;
      incr due
    end
  done;
  let kept = ref 0 in
  for i = 0 to t.n_in_flight - 1 do
    let lpage = t.in_flight.(i) in
    if not (t.wb_done_at.(lpage) <= now) then begin
      t.in_flight.(!kept) <- lpage;
      incr kept
    end
  done;
  t.n_in_flight <- !kept;
  !due

let force_complete t =
  let n = t.n_in_flight in
  t.n_in_flight <- 0;
  for i = n - 1 downto 0 do
    complete_one t t.in_flight.(i)
  done;
  n

(* Scan the entry table round-robin from the persistent cursor and push up
   to [max] Dirty entries into Writeback; returns how many were started.
   The cursor survives across ticks so writeback pressure spreads over the
   whole pool instead of hammering the low lpages. *)
let start_writebacks t ~now ~by_cpu ~max =
  let n = Array.length t.entries in
  let started = ref 0 in
  let scanned = ref 0 in
  while !started < max && !scanned < n do
    let lpage = t.wb_cursor in
    t.wb_cursor <- (t.wb_cursor + 1) mod n;
    incr scanned;
    if t.entries.(lpage).st = Dirty then begin
      start_writeback t ~lpage ~now ~by_cpu;
      incr started
    end
  done;
  !started

(* Eviction-time synchronous flush: the pageout daemon found a Dirty
   victim, so the eviction pays the full disk write before the frame can
   be reused ("only Dirty frames pay writeback"). *)
let sync_writeback t ~lpage ~by_cpu =
  let e = entry t ~lpage in
  match e.st with
  | Dirty ->
      let ns = write_cost t ~lpage in
      e.st <- Clean;
      t.sync_writebacks <- t.sync_writebacks + 1;
      t.disk.write_total <- t.disk.write_total +. ns;
      charge t ~by_cpu ~cat:Profile.Disk_write ~lpage ns
  | Empty | Reading | Clean | Writeback -> bad t ~lpage ~op:"sync_writeback"

let note_evicted t ~lpage ~dirty =
  if dirty then t.dirty_evictions <- t.dirty_evictions + 1
  else t.clean_evictions <- t.clean_evictions + 1;
  if Hub.enabled t.obs then Hub.emit t.obs (Event.Page_evicted { lpage; dirty })

(* Freeing an lpage abandons its entry unconditionally: an in-flight
   writeback is cancelled (the disk time was already charged; the result
   no longer matters), everything else just drops to Empty. Never raises —
   the manual [System.page_out] API frees pages in any state. *)
let note_free t ~lpage =
  let e = entry t ~lpage in
  (match e.st with
  | Writeback ->
      let kept = ref 0 in
      for i = 0 to t.n_in_flight - 1 do
        let l = t.in_flight.(i) in
        if l <> lpage then begin
          t.in_flight.(!kept) <- l;
          incr kept
        end
      done;
      t.n_in_flight <- !kept;
      t.writebacks_canceled <- t.writebacks_canceled + 1
  | Empty | Reading | Clean | Dirty -> ());
  e.st <- Empty;
  e.redirtied <- false

let count t st =
  Array.fold_left (fun acc e -> if e.st = st then acc + 1 else acc) 0 t.entries

(* Paging activity, not state census: zero-fills leave every touched page
   Dirty even on a machine with ample RAM, so [active] keys off the
   events that only pressure can cause. Clean-run reports stay
   byte-identical because this stays false. *)
let active t =
  t.page_ins > 0 || t.writebacks_started > 0 || t.sync_writebacks > 0
  || t.clean_evictions > 0 || t.dirty_evictions > 0

let stats t =
  {
    page_ins = t.page_ins;
    writebacks_started = t.writebacks_started;
    writebacks_completed = t.writebacks_completed;
    writebacks_canceled = t.writebacks_canceled;
    sync_writebacks = t.sync_writebacks;
    redirtied = t.redirtied_count;
    clean_evictions = t.clean_evictions;
    dirty_evictions = t.dirty_evictions;
    disk_read_ns = t.disk.read_total;
    disk_write_ns = t.disk.write_total;
    n_clean = count t Clean;
    n_dirty = count t Dirty;
    n_writeback = count t Writeback;
  }
