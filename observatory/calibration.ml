(* Host-speed calibration.

   The benchmark runs on a shared machine whose speed drifts by about
   ten percent over minutes, and a rep's run time drifts with it (its
   correlation with this kernel's time, timed around it, is 0.7-0.8).
   The parent times this fixed kernel before the first rep and after
   every rep, and scales each rep's host times to the speed at which the
   kernel takes [reference_s]. On the reference machine that cuts the
   run-to-run spread of a run's median from 5-12% to 1-3%. The kernel
   never calls the simulator, so a change to the simulator cannot move
   it. *)

(* The kernel's time on the reference machine (a 2-core Xeon VM). *)
let reference_s = 0.043

(* Hashtable, float, list, array and sort work: the same mix of
   allocation and pointer chasing the simulator does. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i land 4095) (float_of_int i);
    acc := !acc +. Option.value ~default:0. (Hashtbl.find_opt h ((i * 7) land 4095))
  done;
  let a = Array.of_list (List.rev_map (fun x -> x lxor 5) (List.init 100_000 (fun i -> i * 3))) in
  Array.sort compare a;
  !acc +. float_of_int a.(0)

let time_s () =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
