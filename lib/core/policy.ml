module Topo = Numa_machine.Topo

type event = Page_moved of { lpage : int } | Page_freed of { lpage : int }

type t = {
  name : string;
  decide : lpage:int -> cpu:int -> access:Numa_machine.Access.t -> Protocol.decision;
  note : event -> unit;
  n_pinned : unit -> int;
  is_pinned : lpage:int -> bool;
  expired_pins : unit -> int list;
  migrate_hints : unit -> (int * int) list;
  info : unit -> (string * string) list;
  explain : lpage:int -> string;
}

let no_expiry () = []
let no_hints () = []

(* The backbone of every policy that pins on a move count: per-page move
   counts, the pinned set and the [note] that keeps both. A page that has
   moved more than [threshold] times pins GLOBAL; the first time it does,
   [on_pin] runs. Below the threshold [below] answers (LOCAL unless the
   policy says otherwise). A policy adds its own [explain], extra [info]
   entries after the shared ones, and [migrate_hints]. *)
let pin_on_moves ~name ~threshold ~n_pages
    ?(below = fun ~lpage:_ ~cpu:_ -> Protocol.Place_local)
    ?(on_pin = fun ~lpage:_ ~cpu:_ -> ()) ?(info = fun () -> [])
    ?(migrate_hints = no_hints) ~explain () =
  let moves = Array.make n_pages 0 in
  let pinned = Hashtbl.create 64 in
  let decide ~lpage ~cpu ~access:_ =
    if moves.(lpage) > threshold then begin
      if not (Hashtbl.mem pinned lpage) then begin
        Hashtbl.replace pinned lpage ();
        on_pin ~lpage ~cpu
      end;
      Protocol.Place_global
    end
    else below ~lpage ~cpu
  in
  let note = function
    | Page_moved { lpage } -> moves.(lpage) <- moves.(lpage) + 1
    | Page_freed { lpage } ->
        moves.(lpage) <- 0;
        Hashtbl.remove pinned lpage
  in
  {
    name;
    decide;
    note;
    n_pinned = (fun () -> Hashtbl.length pinned);
    is_pinned = (fun ~lpage -> Hashtbl.mem pinned lpage);
    expired_pins = no_expiry;
    migrate_hints;
    explain =
      (fun ~lpage -> explain ~pinned:(Hashtbl.mem pinned lpage) ~moves:moves.(lpage));
    info =
      (fun () ->
        ("threshold", string_of_int threshold)
        :: ("pinned pages", string_of_int (Hashtbl.length pinned))
        :: info ());
  }

let move_limit ?(threshold = 4) ~n_pages () =
  if threshold < 0 then invalid_arg "Policy.move_limit: negative threshold";
  pin_on_moves ~name:"move-limit" ~threshold ~n_pages
    ~explain:(fun ~pinned ~moves ->
      if pinned then
        Printf.sprintf "move-limit: page moved %d times > threshold %d; pinned GLOBAL" moves
          threshold
      else Printf.sprintf "move-limit: moves %d <= threshold %d; cache LOCAL" moves threshold)
    ()

let all_global () =
  {
    name = "all-global";
    decide = (fun ~lpage:_ ~cpu:_ ~access:_ -> Protocol.Place_global);
    note = (fun _ -> ());
    n_pinned = (fun () -> 0);
    is_pinned = (fun ~lpage:_ -> false);
    expired_pins = no_expiry;
    migrate_hints = no_hints;
    explain = (fun ~lpage:_ -> "all-global: every page placed GLOBAL");
    info = (fun () -> []);
  }

let never_pin () =
  {
    name = "never-pin";
    decide = (fun ~lpage:_ ~cpu:_ ~access:_ -> Protocol.Place_local);
    note = (fun _ -> ());
    n_pinned = (fun () -> 0);
    is_pinned = (fun ~lpage:_ -> false);
    expired_pins = no_expiry;
    migrate_hints = no_hints;
    explain = (fun ~lpage:_ -> "never-pin: every page cached LOCAL forever");
    info = (fun () -> []);
  }

let random ~prng ~p_global ~n_pages =
  if p_global < 0. || p_global > 1. then invalid_arg "Policy.random: bad probability";
  (* 0 = undecided, 1 = local, 2 = global; the flip is sticky so that the
     page does not bounce between memories on every fault. *)
  let assignment = Array.make n_pages 0 in
  let pinned = ref 0 in
  let decide ~lpage ~cpu:_ ~access:_ =
    if assignment.(lpage) = 0 then
      if Numa_util.Prng.float prng 1.0 < p_global then begin
        assignment.(lpage) <- 2;
        incr pinned
      end
      else assignment.(lpage) <- 1;
    if assignment.(lpage) = 2 then Protocol.Place_global else Protocol.Place_local
  in
  let note = function
    | Page_freed { lpage } ->
        if assignment.(lpage) = 2 then decr pinned;
        assignment.(lpage) <- 0
    | Page_moved _ -> ()
  in
  {
    name = "random";
    decide;
    note;
    n_pinned = (fun () -> !pinned);
    is_pinned = (fun ~lpage -> assignment.(lpage) = 2);
    expired_pins = no_expiry;
    migrate_hints = no_hints;
    explain =
      (fun ~lpage ->
        match assignment.(lpage) with
        | 1 -> Printf.sprintf "random(p_global=%.2f): sticky coin flip chose LOCAL" p_global
        | 2 -> Printf.sprintf "random(p_global=%.2f): sticky coin flip chose GLOBAL" p_global
        | _ -> Printf.sprintf "random(p_global=%.2f): page not yet assigned" p_global);
    info = (fun () -> [ ("p_global", Printf.sprintf "%.2f" p_global) ]);
  }

let reconsider ?(threshold = 4) ~window_ns ~now ~n_pages () =
  if threshold < 0 then invalid_arg "Policy.reconsider: negative threshold";
  if window_ns <= 0. then invalid_arg "Policy.reconsider: window must be positive";
  let moves = Array.make n_pages 0 in
  let pinned_at = Hashtbl.create 64 in
  let decide ~lpage ~cpu:_ ~access:_ =
    if moves.(lpage) > threshold then begin
      let t = now () in
      match Hashtbl.find_opt pinned_at lpage with
      | None ->
          Hashtbl.replace pinned_at lpage t;
          Protocol.Place_global
      | Some since when t -. since < window_ns -> Protocol.Place_global
      | Some _ ->
          (* The pin has aged out: give the page a fresh chance locally. *)
          Hashtbl.remove pinned_at lpage;
          moves.(lpage) <- 0;
          Protocol.Place_local
    end
    else Protocol.Place_local
  in
  let note = function
    | Page_moved { lpage } -> moves.(lpage) <- moves.(lpage) + 1
    | Page_freed { lpage } ->
        moves.(lpage) <- 0;
        Hashtbl.remove pinned_at lpage
  in
  let explain ~lpage =
    match Hashtbl.find_opt pinned_at lpage with
    | Some since ->
        Printf.sprintf
          "reconsider: page moved %d times > threshold %d; pinned GLOBAL at t=%.0f ns \
           (expires after %.0f ns)"
          moves.(lpage) threshold since window_ns
    | None ->
        Printf.sprintf "reconsider: moves %d <= threshold %d; cache LOCAL" moves.(lpage)
          threshold
  in
  {
    name = "reconsider";
    decide;
    note;
    n_pinned = (fun () -> Hashtbl.length pinned_at);
    is_pinned = (fun ~lpage -> Hashtbl.mem pinned_at lpage);
    migrate_hints = no_hints;
    explain;
    expired_pins =
      (fun () ->
        let t = now () in
        Hashtbl.fold
          (fun lpage since acc -> if t -. since >= window_ns then lpage :: acc else acc)
          pinned_at []);
    info =
      (fun () ->
        [
          ("threshold", string_of_int threshold);
          ("window_ns", Printf.sprintf "%.0f" window_ns);
          ("pinned pages", string_of_int (Hashtbl.length pinned_at));
        ]);
  }

let decay ?(threshold = 4.) ?(half_life_ns = 50e6) ~now ~n_pages () =
  if threshold < 0. then invalid_arg "Policy.decay: negative threshold";
  if half_life_ns <= 0. then invalid_arg "Policy.decay: half-life must be positive";
  (* The move count is a leaky counter: it halves every [half_life_ns] of
     simulated time, so a bursty ping-pong phase stops counting against the
     page once the phase is over. The decayed value is materialised lazily
     (on decide/note/scan) from (score, last-update) pairs, which keeps the
     policy O(1) per event like move_limit. *)
  let score = Array.make n_pages 0. in
  let last = Array.make n_pages 0. in
  let pinned = Hashtbl.create 64 in
  let current lpage =
    let dt = now () -. last.(lpage) in
    if dt <= 0. then score.(lpage) else score.(lpage) *. (0.5 ** (dt /. half_life_ns))
  in
  let refresh lpage =
    let s = current lpage in
    score.(lpage) <- s;
    last.(lpage) <- now ();
    s
  in
  let decide ~lpage ~cpu:_ ~access:_ =
    let s = refresh lpage in
    if s > threshold then begin
      Hashtbl.replace pinned lpage ();
      Protocol.Place_global
    end
    else begin
      Hashtbl.remove pinned lpage;
      Protocol.Place_local
    end
  in
  let note = function
    | Page_moved { lpage } ->
        let s = refresh lpage in
        score.(lpage) <- s +. 1.
    | Page_freed { lpage } ->
        score.(lpage) <- 0.;
        last.(lpage) <- now ();
        Hashtbl.remove pinned lpage
  in
  let explain ~lpage =
    if Hashtbl.mem pinned lpage then
      Printf.sprintf
        "decay: decayed move score %.2f > threshold %.1f (half-life %.0f ns); pinned \
         GLOBAL until the score decays"
        (current lpage) threshold half_life_ns
    else
      Printf.sprintf "decay: decayed move score %.2f <= threshold %.1f; cache LOCAL"
        (current lpage) threshold
  in
  {
    name = "decay";
    decide;
    note;
    n_pinned = (fun () -> Hashtbl.length pinned);
    is_pinned = (fun ~lpage -> Hashtbl.mem pinned lpage);
    explain;
    expired_pins =
      (fun () ->
        (* A pin whose score has leaked back under the threshold no longer
           has a reason to exist; hand it to the rescan so the page faults
           again and [decide] can answer LOCAL. *)
        Hashtbl.fold
          (fun lpage () acc -> if current lpage <= threshold then lpage :: acc else acc)
          pinned []);
    migrate_hints = no_hints;
    info =
      (fun () ->
        [
          ("threshold", Printf.sprintf "%.1f" threshold);
          ("half_life_ns", Printf.sprintf "%.0f" half_life_ns);
          ("pinned pages", string_of_int (Hashtbl.length pinned));
        ]);
  }

let bandwidth_aware ?(threshold = 4) ~topo ~pressure ~n_pages () =
  if threshold < 0 then invalid_arg "Policy.bandwidth_aware: negative threshold";
  (* Move-limit backbone (moves > threshold still pins), but instead of
     answering LOCAL unconditionally below the threshold, compare the
     modelled per-reference cost of the two placements from this CPU:

     - LOCAL costs the node's own fetch latency, scaled up steeply as the
       node's frame pool fills (a LOCAL answer against a full pool only
       buys a fallback-to-global plus eviction churn);
     - GLOBAL costs the matrix latency to the page's shared-level home
       (the memory board, or the stripe home [lpage mod cpu_nodes] on a
       Butterfly-class machine), surcharged when the directed link to that
       home is slow — one extra word-time per word on a congestible link.

     On a striped machine this is what chooses WHICH node serves a shared
     page: stripes homed on the faulting node are near-free GLOBAL answers,
     far stripes over slow links lose to LOCAL caching. A GLOBAL answer
     below the threshold is opportunistic, not a pin (like all_global,
     n_pinned does not count it), so the page can still be cached locally
     by a later faulting CPU with better geometry. *)
  let cheap_global = ref 0 in
  let local_cost ~cpu =
    let base = Topo.fetch_ns topo ~from:cpu ~at:cpu in
    let p = pressure ~node:cpu in
    if p >= 1. then base *. 64.
    else if p >= 0.9 then base *. (1. +. ((p -. 0.9) *. 100.))
    else base
  in
  let shared_cost ~lpage ~cpu =
    let home = Topo.global_home topo ~lpage in
    let base = Topo.fetch_ns topo ~from:cpu ~at:home in
    match Topo.link_words_per_ns topo ~from:cpu ~at:home with
    | None -> base
    | Some bw -> base +. (1. /. bw)
  in
  pin_on_moves ~name:"bandwidth-aware" ~threshold ~n_pages
    ~below:(fun ~lpage ~cpu ->
      if shared_cost ~lpage ~cpu <= local_cost ~cpu then begin
        incr cheap_global;
        Protocol.Place_global
      end
      else Protocol.Place_local)
    ~info:(fun () -> [ ("cheap-global decisions", string_of_int !cheap_global) ])
    ~explain:(fun ~pinned ~moves ->
      if pinned then
        Printf.sprintf
          "bandwidth-aware: page moved %d times > threshold %d; pinned GLOBAL" moves
          threshold
      else
        Printf.sprintf
          "bandwidth-aware: moves %d <= threshold %d; next fault compares shared-home \
           latency+link bandwidth against local latency+frame pressure"
          moves threshold)
    ()

let migrate_threads ?(threshold = 4) ~topo ~n_pages () =
  if threshold < 0 then invalid_arg "Policy.migrate_threads: negative threshold";
  (* Phoenix-style coordination: placement is exactly move_limit, but when
     a page pins, the policy also asks "should the COMPUTATION move?". If
     the page's shared-level home is another CPU node's memory (always the
     case on striped machines, never on a board machine), the faulting
     CPU's work would run closer to its data over there, so the policy
     queues a (faulting_cpu, home_node) re-homing hint. The system layer
     consumes hints from its daemon tick and may move one thread per tick;
     the hint list is drained on read so a hint fires at most once. *)
  let hints = ref [] in
  let hinted = ref 0 in
  pin_on_moves ~name:"migrate-threads" ~threshold ~n_pages
    ~on_pin:(fun ~lpage ~cpu ->
      let home = Topo.global_home topo ~lpage in
      if home <> cpu && home < Topo.cpu_nodes topo then begin
        hints := (cpu, home) :: !hints;
        incr hinted
      end)
    ~info:(fun () -> [ ("migration hints issued", string_of_int !hinted) ])
    ~migrate_hints:(fun () ->
      let out = List.rev !hints in
      hints := [];
      out)
    ~explain:(fun ~pinned ~moves ->
      if pinned then
        Printf.sprintf
          "migrate-threads: page moved %d times > threshold %d; pinned GLOBAL (with a \
           thread re-homing hint toward its shared-level home)"
          moves threshold
      else
        Printf.sprintf "migrate-threads: moves %d <= threshold %d; cache LOCAL" moves
          threshold)
    ()
