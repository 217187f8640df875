let reference_ns (c : Config.t) ~access ~where =
  match (where, access) with
  | Location.Local_here, Access.Load -> c.local_fetch_ns
  | Location.Local_here, Access.Store -> c.local_store_ns
  | Location.In_global, Access.Load -> c.global_fetch_ns
  | Location.In_global, Access.Store -> c.global_store_ns
  | Location.Remote_local, Access.Load -> c.remote_fetch_ns
  | Location.Remote_local, Access.Store -> c.remote_store_ns

let references_ns c ~access ~where ~count =
  if count < 0 then invalid_arg "Cost.references_ns: negative count";
  float_of_int count *. reference_ns c ~access ~where

let page_copy_ns (c : Config.t) ~src ~dst =
  let per_word =
    reference_ns c ~access:Access.Load ~where:src
    +. reference_ns c ~access:Access.Store ~where:dst
  in
  float_of_int c.page_size_words *. per_word

let page_zero_ns (c : Config.t) ~dst =
  float_of_int c.page_size_words *. reference_ns c ~access:Access.Store ~where:dst

(* Node-precise variants: the same formulas, but priced from the topology
   matrix instead of the three classes. On a classic (matrix-less) config
   the derived matrix copies the scalars verbatim, so these agree with
   the class-based functions bit for bit.

   Every walk and every charge prices a reference here, so the two
   reference prices are marked [@inline]: the float they return then
   stays unboxed at the call site, where a call that is not inlined
   would box it. So are the disk prices, which the paging transitions
   add to their float totals. The page prices and the fixed costs at the
   end allocate no less with the attribute (ocamlopt inlines the fixed
   costs by size). *)

let[@inline] node_reference_ns ~(topo : Topo.t) ~access ~cpu ~node =
  match access with
  | Access.Load -> Topo.fetch_ns topo ~from:cpu ~at:node
  | Access.Store -> Topo.store_ns topo ~from:cpu ~at:node

let[@inline] place_reference_ns ~topo ~access ~cpu ~place =
  node_reference_ns ~topo ~access ~cpu ~node:(Topo.place_node topo place)

let place_page_copy_ns (c : Config.t) ~topo ~cpu ~src ~dst =
  let per_word =
    place_reference_ns ~topo ~access:Access.Load ~cpu ~place:src
    +. place_reference_ns ~topo ~access:Access.Store ~cpu ~place:dst
  in
  float_of_int c.page_size_words *. per_word

let place_page_zero_ns (c : Config.t) ~topo ~cpu ~dst =
  float_of_int c.page_size_words
  *. place_reference_ns ~topo ~access:Access.Store ~cpu ~place:dst

(* Backing-store (paging-device) costs: a fixed seek + rotation latency
   from the config plus the word-by-word DMA transfer, priced at the
   page's home memory's own matrix row. A page-in stores words into the
   home memory; a writeback fetches them out. *)

let[@inline] disk_transfer_ns (c : Config.t) ~(topo : Topo.t) ~access ~lpage =
  let home = Topo.global_home topo ~lpage in
  float_of_int c.page_size_words *. node_reference_ns ~topo ~access ~cpu:home ~node:home

let[@inline] disk_read_ns (c : Config.t) ~topo ~lpage =
  c.disk_read_ns +. disk_transfer_ns c ~topo ~access:Access.Store ~lpage

let[@inline] disk_write_ns (c : Config.t) ~topo ~lpage =
  c.disk_write_ns +. disk_transfer_ns c ~topo ~access:Access.Load ~lpage

let fault_trap_ns (c : Config.t) = c.fault_trap_ns
let pmap_action_ns (c : Config.t) = c.pmap_action_ns
let tlb_shootdown_ns (c : Config.t) = c.tlb_shootdown_ns
