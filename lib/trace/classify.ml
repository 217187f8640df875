open Numa_machine
module Sys_ = Numa_system.System

type page_class = Class_private | Class_read_shared | Class_write_shared

type summary = {
  vpage : int;
  region : string;
  reads : int;
  writes : int;
  readers : int list;
  writers : int list;
  cls : page_class;
}

let class_to_string = function
  | Class_private -> "private"
  | Class_read_shared -> "read-shared"
  | Class_write_shared -> "write-shared"

module Int_set = Set.Make (Int)

type acc = {
  mutable a_region : string;
  mutable a_reads : int;
  mutable a_writes : int;
  mutable a_readers : Int_set.t;
  mutable a_writers : Int_set.t;
}

let classify buffer =
  let pages : (int, acc) Hashtbl.t = Hashtbl.create 256 in
  Trace_buffer.iter buffer (fun e ->
      let acc =
        match Hashtbl.find_opt pages e.Sys_.vpage with
        | Some a -> a
        | None ->
            let a =
              {
                a_region = e.Sys_.region;
                a_reads = 0;
                a_writes = 0;
                a_readers = Int_set.empty;
                a_writers = Int_set.empty;
              }
            in
            Hashtbl.replace pages e.Sys_.vpage a;
            a
      in
      match e.Sys_.kind with
      | Access.Load ->
          acc.a_reads <- acc.a_reads + e.Sys_.count;
          acc.a_readers <- Int_set.add e.Sys_.cpu acc.a_readers
      | Access.Store ->
          acc.a_writes <- acc.a_writes + e.Sys_.count;
          acc.a_writers <- Int_set.add e.Sys_.cpu acc.a_writers);
  Hashtbl.fold
    (fun vpage a out ->
      let users = Int_set.union a.a_readers a.a_writers in
      let cls =
        if Int_set.cardinal a.a_writers >= 1 && Int_set.cardinal users > 1 then
          Class_write_shared
        else if Int_set.cardinal users <= 1 then Class_private
        else Class_read_shared
      in
      {
        vpage;
        region = a.a_region;
        reads = a.a_reads;
        writes = a.a_writes;
        readers = Int_set.elements a.a_readers;
        writers = Int_set.elements a.a_writers;
        cls;
      }
      :: out)
    pages []
  |> List.sort (fun a b -> Int.compare a.vpage b.vpage)

let by_region summaries =
  let order = ref [] in
  let groups = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem groups s.region) then begin
        order := s.region :: !order;
        Hashtbl.replace groups s.region []
      end;
      Hashtbl.replace groups s.region (s :: Hashtbl.find groups s.region))
    summaries;
  List.rev_map (fun r -> (r, List.rev (Hashtbl.find groups r))) !order
