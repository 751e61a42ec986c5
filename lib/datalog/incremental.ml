open Recalg_kernel
module Obs = Recalg_obs.Obs

type t = {
  program : Program.t;
  fuel : Limits.fuel;
  negation_free : bool;
  mutable edb : Edb.t;
  mutable result : Edb.t;  (* EDB and all derived relations *)
}

let negation_free program =
  List.for_all (fun (_, _, pol) -> pol = `Pos) (Program.dependencies program)

let recompute ~fuel program edb = Seminaive.stratified ~fuel program edb

let init ?(fuel = Limits.default ()) program edb =
  Obs.span "incremental.datalog_init" @@ fun () ->
  match recompute ~fuel program edb with
  | Error _ as e -> e
  | Ok result ->
    Ok { program; fuel; negation_free = negation_free program; edb; result }

let edb t = t.edb
let result t = t.result

let holds t pred tup = Edb.mem t.result pred tup

(* Overdelete: close the set of derived facts one of whose recorded
   derivation steps consumes a deleted fact, firing delta-restricted
   rounds against the *pre-update* materialization. Facts that remain
   are below the new least fixpoint (the DRed invariant), so a resumed
   semi-naive run rederives exactly the from-scratch result. *)
let overdelete t ~old_result ~dels =
  let rec loop deleted frontier =
    if Edb.equal frontier Edb.empty then deleted
    else begin
      Limits.spend t.fuel ~what:"incremental: DRed round";
      Obs.count "incr/dred_round" 1;
      let heads =
        Seminaive.delta_heads t.program ~base:old_result ~frontier
          t.program.Program.rules
      in
      (* Only facts actually materialized can be deleted; drop the ones
         already in the deleted set to reach a fixpoint. *)
      let fresh =
        Edb.fold
          (fun pred tup acc ->
            if Edb.mem old_result pred tup && not (Edb.mem deleted pred tup)
            then Edb.add pred tup acc
            else acc)
          heads Edb.empty
      in
      loop (Edb.union deleted fresh) fresh
    end
  in
  loop dels dels

let update_exn t u =
  let adds, dels = Edb.Update.effective t.edb u in
  let new_edb = Edb.Update.apply u t.edb in
  t.edb <- new_edb;
  let n_adds = Edb.fold (fun _ _ n -> n + 1) adds 0
  and n_dels = Edb.fold (fun _ _ n -> n + 1) dels 0 in
  if n_adds + n_dels = 0 then t.result
  else begin
    Obs.count "incr/insertions" n_adds;
    Obs.count "incr/retractions" n_dels;
    Limits.spend t.fuel ~what:"incremental: update batch";
    Faultinj.hit "incr/batch";
    let rules = t.program.Program.rules in
    let result =
      if not t.negation_free then begin
        (* Negation anywhere: deletions can grow relations and insertions
           shrink them; fall back to stratified recomputation. *)
        Obs.count "incr/recompute" 1;
        match recompute ~fuel:t.fuel t.program new_edb with
        | Ok r -> r
        | Error msg ->
          (* init already vetted the program; only the EDB changed. *)
          invalid_arg ("Incremental.update: " ^ msg)
      end
      else if n_dels = 0 then begin
        (* Insert-only continuation: the old materialization is below the
           new least fixpoint; resume extends it. *)
        Obs.count "incr/extend" 1;
        let derived =
          Seminaive.resume ~fuel:t.fuel ~adds t.program ~base:new_edb
            ~init:t.result rules
        in
        Edb.union new_edb derived
      end
      else begin
        (* Delete (and possibly insert): DRed. *)
        Obs.count "incr/dred" 1;
        let deleted = overdelete t ~old_result:t.result ~dels in
        Obs.countf "incr/dred_deleted" (fun () ->
            Edb.fold (fun _ _ n -> n + 1) deleted 0);
        let s_minus = Edb.diff t.result deleted in
        let derived =
          Seminaive.resume ~fuel:t.fuel t.program ~base:new_edb ~init:s_minus
            rules
        in
        Edb.union new_edb derived
      end
    in
    t.result <- result;
    result
  end

(* All-or-nothing: [t] mutates exactly two fields, both holding
   immutable values, so the pre-batch state is a two-pointer snapshot.
   Any exception mid-batch (fuel, a governed ceiling, an injected
   fault) restores it before re-raising — and a degradation latched by
   an inner engine is promoted back to an abort, because silently
   storing an under-approximated materialization would poison every
   later update. *)
let update t u =
  Obs.span "incremental.datalog_update" @@ fun () ->
  let old_edb = t.edb and old_result = t.result in
  let pre_degraded = Limits.degraded t.fuel in
  let rollback () =
    t.edb <- old_edb;
    t.result <- old_result
  in
  try
    let r = update_exn t u in
    if Limits.degraded t.fuel <> pre_degraded then begin
      rollback ();
      Limits.fail_degraded t.fuel
    end;
    r
  with e ->
    rollback ();
    raise e
