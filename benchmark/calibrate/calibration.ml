(* The benchmark's host calibration kernel (see benchmark/README.md): a
   fixed hashing-, allocation- and sorting-bound job of size [n]. It
   uses no recalg code, so no change to recalg can change its time; only
   the host's speed can. *)

let run n =
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h ((i * 7919) mod 200_003, i land 1023) [ i; i + 1 ]
  done;
  let sum = ref 0 in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt h ((i * 7919) mod 200_003, i land 1023) with
    | Some (a :: _) -> sum := !sum + a
    | Some [] | None -> ()
  done;
  let sorted = List.sort compare (List.init n (fun i -> (i * 48271) mod 65_537)) in
  (!sum, List.hd sorted)
