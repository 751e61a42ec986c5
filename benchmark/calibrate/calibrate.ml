(* The benchmark's host calibration job: the calibration kernel at a size
   that takes about a tenth of a second, in a process that links no
   recalg code, so no change to recalg, its start-up included, can change
   its time. *)

let () =
  let sum, first = Calibration.run 200_000 in
  Printf.printf "%d %d\n" sum first
