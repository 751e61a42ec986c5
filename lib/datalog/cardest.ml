(* Envelope cardinality estimation for body-literal ordering.

   EDB predicates get their exact cardinality; derived predicates get a
   crude monotone envelope — per round, each rule contributes the capped
   product of its positive body literals' estimates, summed per head —
   iterated once per IDB predicate. Recursive predicates saturate at the
   cap, which correctly marks them "large". The numbers only ever rank
   ready literals inside [Safety.evaluation_order_with], so absolute
   accuracy is irrelevant; determinism and monotonicity are what matter. *)

let cap = 1e12

let estimates program base =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace tbl p (float_of_int (Edb.cardinal base p)))
    (Edb.preds base);
  let idb = Program.idb_preds program in
  List.iter
    (fun p -> if not (Hashtbl.mem tbl p) then Hashtbl.replace tbl p 0.)
    idb;
  let est p = match Hashtbl.find_opt tbl p with Some x -> x | None -> 0. in
  let body_est (r : Rule.t) =
    List.fold_left
      (fun acc lit ->
        match lit with
        | Literal.Pos a -> Float.min cap (acc *. Float.max 1. (est a.Literal.pred))
        | Literal.Neg _ | Literal.Eq _ | Literal.Neq _ -> acc)
      1. r.Rule.body
  in
  for _ = 1 to List.length idb + 1 do
    List.iter
      (fun h ->
        let candidate =
          List.fold_left
            (fun acc r -> Float.min cap (acc +. body_est r))
            0.
            (Program.rules_for program h)
        in
        Hashtbl.replace tbl h (Float.max (est h) candidate))
      idb
  done;
  est

(* A live reading (the actual store cardinality at a round boundary)
   outranks the static envelope — the envelope only ever bounds a
   recursive predicate from above, while the live count is exact for the
   round about to run. [prefer] is the static-only case. *)
let prefer_with ~live program base =
  let est = estimates program base in
  fun lit ->
    match lit with
    | Literal.Pos a -> (
      match live a.Literal.pred with
      | Some c -> min 1_000_000_000 (max 0 c)
      | None -> int_of_float (Float.min 1e9 (est a.Literal.pred)))
    | Literal.Neg _ | Literal.Eq _ | Literal.Neq _ -> 0

let prefer program base = prefer_with ~live:(fun _ -> None) program base
