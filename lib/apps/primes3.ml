(** Primes3: parallel Sieve of Eratosthenes over a shared bit vector of odd
    numbers (section 3.2).

    The heavy, legitimate use of writably-shared memory: sieving threads
    fetch and store all over the shared bit vector, so its pages ping-pong
    between local memories until the policy pins them — the program with
    the paper's worst alpha (0.17) and highest NUMA-management overhead
    (Table 4: ΔS/T_numa ~ 25%). The scan phase then reads the whole vector
    and produces an integer result vector, also shared. *)

open Numa_system
module Api = Numa_sim.Api
module W = Workload
module Region_attr = Numa_vm.Region_attr

let limit scale = max 20_000 (int_of_float (10_000_000. *. scale))

(* [pragma] is applied to the sieve and output regions; the section 4.3
   ablation marks them noncacheable so they are placed in global memory up
   front, skipping the thrash-then-pin phase entirely. *)
let make ?pragma () : App_sig.t =
  let setup sys (p : App_sig.params) =
    let limit = limit p.App_sig.scale in
    let config = System.config sys in
    let wpp = config.Numa_machine.Config.page_size_words in
    let bits_per_page = wpp * 32 in
    let n_bits = (limit - 1) / 2 in
    let sieve =
      W.alloc_arr sys ?pragma ~name:"primes3.sieve"
        ~sharing:Region_attr.Declared_write_shared
        ~words:((n_bits + 31) / 32)
        ()
    in
    let n_sieve_pages = W.n_pages sieve in
    let sieve_primes =
      Array.to_list (Primes_util.primes_upto (Primes_util.isqrt limit))
      |> List.filter (fun q -> q >= 3)
      |> Array.of_list
    in
    (* Primes per sieve page and their output offsets, precomputed so the
       scan phase writes each result exactly once wherever it runs. *)
    let primes_in_page = Primes_util.primes_per_segment ~limit ~bits:bits_per_page in
    let out_offset = Array.make (n_sieve_pages + 1) 0 in
    for pg = 0 to n_sieve_pages - 1 do
      out_offset.(pg + 1) <- out_offset.(pg) + primes_in_page.(pg)
    done;
    (* The output holds every prime up to the limit: 2, then the odd ones. *)
    let output =
      W.alloc_arr sys ?pragma ~name:"primes3.output"
        ~sharing:Region_attr.Declared_write_shared
        ~words:(1 + out_offset.(n_sieve_pages))
        ()
    in
    (* Marking work is parcelled as (prime, page range) units of roughly
       equal mark counts, so small primes (which mark a quarter of the
       vector) do not serialise the phase. Different threads still mark
       different primes into the same pages, preserving the heavy write
       sharing of the shared bit vector. *)
    let mark_units =
      let total_marks =
        Array.fold_left
          (fun acc q ->
            acc
            + Primes_util.count_odd_multiples_in_bit_range ~p:q ~lo_bit:0
                ~hi_bit:(n_bits - 1) ~limit)
          0 sieve_primes
      in
      let target = max 1 (total_marks / 128) in
      let units = ref [] in
      Array.iteri
        (fun qi q ->
          let pg = ref 0 in
          while !pg < n_sieve_pages do
            (* Grow the page range until it holds ~target marks. *)
            let start = !pg in
            let marks = ref 0 in
            while !pg < n_sieve_pages && !marks < target do
              let lo_bit = !pg * bits_per_page in
              let hi_bit = min ((!pg + 1) * bits_per_page) n_bits - 1 in
              if hi_bit >= lo_bit then
                marks :=
                  !marks
                  + Primes_util.count_odd_multiples_in_bit_range ~p:q ~lo_bit ~hi_bit
                      ~limit;
              incr pg
            done;
            if !marks > 0 then units := (qi, start, !pg - 1) :: !units
          done)
        sieve_primes;
      (* Order units by page position, then prime: concurrent threads then
         work different primes into the same neighbourhood of the vector,
         exactly the contention pattern of the real sieve. *)
      let arr = Array.of_list !units in
      Array.sort
        (fun (qa, pa, _) (qb, pb, _) ->
          match Int.compare pa pb with 0 -> Int.compare qa qb | c -> c)
        arr;
      arr
    in
    let mark_pile =
      W.make_workpile sys ~name:"primes3.marks" ~total:(Array.length mark_units) ~chunk:1
    in
    let scan_pile = W.make_workpile sys ~name:"primes3.scan" ~total:n_sieve_pages ~chunk:2 in
    let barrier = System.make_barrier sys ~name:"primes3.phase" ~parties:p.App_sig.nthreads in
    for i = 0 to p.App_sig.nthreads - 1 do
      ignore
        (System.spawn sys ~name:(Printf.sprintf "primes3.%d" i)
           (fun ~stack_vpage:_ ->
             (* Phase 1: each thread takes (prime, page range) units from
                the pile and masks off the composites. *)
             let mark_unit (qi, pg_lo, pg_hi) =
               let q = sieve_primes.(qi) in
               for pg = pg_lo to pg_hi do
                 let lo_bit = pg * bits_per_page in
                 let hi_bit = min ((pg + 1) * bits_per_page) n_bits - 1 in
                 if hi_bit >= lo_bit then begin
                   let m =
                     Primes_util.count_odd_multiples_in_bit_range ~p:q ~lo_bit ~hi_bit
                       ~limit
                   in
                   if m > 0 then begin
                     let vpage = W.vpage_of sieve (lo_bit / 32) in
                     (* Each mark is a fetch of the word, a store of the
                        masked word, and some loop control. *)
                     Api.read ~count:m vpage;
                     Api.write ~count:m vpage;
                     Api.compute (float_of_int m *. 2.8 *. W.Cost.loop_ns)
                   end
                 end
               done
             in
             let rec mark () =
               match W.workpile_take mark_pile with
               | None -> ()
               | Some (lo, hi) ->
                   for k = lo to hi do
                     mark_unit mark_units.(k)
                   done;
                   mark ()
             in
             mark ();
             Api.barrier barrier;
             (* Phase 2: scan the bit vector for survivors and emit them
                into the shared result vector. *)
             let scan_page pg =
               let lo_word = pg * wpp in
               let n_words = min wpp (sieve.W.words - lo_word) in
               W.read_range sieve ~lo:lo_word ~n:n_words;
               Api.compute (float_of_int (n_words * 32) *. (W.Cost.loop_ns /. 10.));
               let found = primes_in_page.(pg) in
               if found > 0 then W.write_range output ~lo:out_offset.(pg) ~n:found
             in
             let rec scan () =
               match W.workpile_take scan_pile with
               | None -> ()
               | Some (lo, hi) ->
                   for pg = lo to hi do
                     scan_page pg
                   done;
                   scan ()
             in
             scan ()))
    done
  in
  let name, description =
    match pragma with
    | None -> ("primes3", "parallel sieve over a shared bit vector; heavy write sharing")
    | Some _ ->
        ( "primes3-pragma",
          "the sieve with its shared vectors marked noncacheable up front" )
  in
  { App_sig.name; description; fetch_dominated = false; setup }

let app = make ()
let app_pragma = make ~pragma:Numa_vm.Region_attr.Noncacheable ()
