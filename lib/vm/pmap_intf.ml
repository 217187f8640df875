(** The Mach pmap interface, with the paper's NUMA extensions.

    This is the boundary between the machine-independent VM system (this
    library) and the machine-dependent pmap layer (implemented for the
    simulated ACE by [Numa_core.Pmap_manager]). The paper kept the whole
    NUMA mechanism below this line; so do we.

    The three extensions of section 2.3.3 are present:
    - [enter] takes {e min} and {e max} protection, so the pmap layer may
      map with the strictest permissions and replicate writable-but-unwritten
      pages read-only;
    - [enter] takes the target [cpu] that needs the mapping;
    - [free_page] / [free_page_sync] notify the pmap layer of frame
      reallocation, split in two for lazy cleanup.

    A pmap is named by an integer handle so the interface can be carried as
    a record of functions; [free_page] tags are integers for the same
    reason. *)

open Numa_machine

type free_tag = int

type ops = {
  pmap_create : name:string -> int;
      (** New (empty) physical map for a task; returns its handle. *)
  pmap_destroy : int -> unit;
      (** Drop every mapping of the pmap and release it. *)
  enter :
    pmap:int ->
    cpu:int ->
    vpage:int ->
    lpage:int ->
    min_prot:Prot.t ->
    max_prot:Prot.t ->
    unit;
      (** Map [vpage] to the page backing logical page [lpage], on [cpu],
          with at least [min_prot] and at most [max_prot] permissions. The
          pmap layer chooses the placement and the actual protection. *)
  protect : pmap:int -> vpage:int -> n:int -> Prot.t -> unit;
      (** Clamp the protection of all resident mappings in a range. *)
  remove : pmap:int -> vpage:int -> n:int -> unit;
      (** Drop all mappings in a virtual range of one pmap. *)
  remove_all : lpage:int -> unit;
      (** Drop a logical page from every pmap it is resident in. *)
  zero_page : lpage:int -> unit;
      (** Mark the page zero-filled. Lazy: the zeroes are materialised at
          the first [enter], in whichever memory the page is placed, to
          avoid writing zeros into global memory and immediately copying
          them (section 2.3.1). *)
  install_page : lpage:int -> content:int -> unit;
      (** Fill the page with known contents (the page-in path). *)
  extract_content : lpage:int -> int;
      (** Authoritative current contents of the page, syncing any dirty
          local copy back to global memory first (the page-out path). *)
  free_page : lpage:int -> free_tag;
      (** The frame is being freed: start lazy cleanup of cache state and
          placement history, return a tag, which is never negative. A
          page has at most one pending tag: a second [free_page] of the
          page before its sync supersedes the first tag, which
          [free_page_sync] then rejects. *)
  free_page_sync : free_tag -> unit;
      (** The frame is being reallocated: wait for the tagged cleanup. Each
          tag syncs once; a negative, unknown, already-synced or superseded
          tag raises [Invalid_argument]. *)
  resident : pmap:int -> cpu:int -> vpage:int -> (Prot.t * Location.relative) option;
      (** Current mapping, if any, as seen by a referencing CPU: its
          protection and where the backing memory is. The simulation engine
          uses this to price references and detect faults. *)
  read_slot : pmap:int -> cpu:int -> vpage:int -> int;
      (** Read the content cell through the current mapping. Requires a
          resident mapping. *)
  write_slot : pmap:int -> cpu:int -> vpage:int -> int -> unit;
      (** Write the content cell through the current mapping. Requires a
          resident, writable mapping. *)
}
