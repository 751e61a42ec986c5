open Recalg_kernel
open Recalg_datalog
open Recalg_algebra

type t = {
  defs : Defs.t;
  db : Db.t;
  pred_constants : (string * string) list;
  levels : (Defs.t * (string * string list) list) list;
}

let tag_sym pred = Value.sym pred

(* The p-part of a tagged fixpoint set: untag [ [p, args] ] to [ args ]. *)
let untag pred set_expr =
  Expr.map (Efun.Proj 2)
    (Expr.select (Pred.Eq (Efun.Proj 1, Efun.Const (tag_sym pred))) set_expr)

let tag pred rule_expr =
  Expr.map (Efun.Tuple_of [ Efun.Const (tag_sym pred); Efun.Id ]) rule_expr

let edb_alias p = p ^ "__edb"

let schedule t = List.map snd t.levels

let translate program edb =
  match Safety.check program with
  | Error violations ->
    Error
      (Fmt.str "unsafe program: %a" Fmt.(list ~sep:sp Safety.pp_violation) violations)
  | Ok () -> (
    match Stratify.strata program with
    | Error msg -> Error msg
    | Ok groups ->
      let builtins = program.Program.builtins in
      let idb = Program.idb_preds program in
      let fix_var = "w" in
      (* Per-component translation: a stratum splits into the connected
         components of its dependency graph (Stratify.components) — each
         is one simultaneous fixpoint; splitting is sound because
         components never read each other's tag space, so the joint
         inflationary fixpoint is exactly the disjoint union of the
         component fixpoints. Predicates of earlier strata (or sibling
         components) resolve to their finished constants; same-component
         predicates resolve to the untagged part of the fixpoint
         variable. A single-component stratum produces the same constant
         this translation always produced. *)
      let translate_component preds =
        let resolve pred =
          if List.mem pred preds then untag pred (Expr.rel fix_var)
          else Expr.rel pred
        in
        let step_body =
          List.concat_map
            (fun pred ->
              let with_edb =
                if Edb.tuples edb pred <> [] then [ tag pred (Expr.rel (edb_alias pred)) ]
                else []
              in
              with_edb
              @ List.map
                  (fun r ->
                    tag pred (Datalog_to_alg.compile_rule builtins ~uncertain:[] resolve r))
                  (Program.rules_for program pred))
            preds
        in
        let body =
          match step_body with
          | [] -> Expr.empty
          | e :: rest -> List.fold_left Expr.union e rest
        in
        let fix_const = String.concat "_" preds ^ "__fix" in
        let fix_def = Defs.constant fix_const (Expr.ifp fix_var body) in
        let pred_defs =
          List.map
            (fun pred -> Defs.constant pred (untag pred (Expr.rel fix_const)))
            preds
        in
        (fix_const, preds, fix_def, pred_defs)
      in
      let level_comps =
        List.filter_map
          (fun group ->
            let preds = List.filter (fun p -> List.mem p idb) group in
            if preds = [] then None
            else
              Some (List.map translate_component (Stratify.components program preds)))
          groups
      in
      let defs =
        List.concat_map
          (fun comps ->
            List.concat_map
              (fun (_, _, fix_def, pred_defs) -> fix_def :: pred_defs)
              comps)
          level_comps
      in
      (* Per-level environments for [eval_all]: only the level's own
         fixpoint definitions — every other name (earlier predicates,
         EDB aliases) falls through to the database, where earlier
         levels' results have been materialised. The definition bodies
         are shared with [defs], so both evaluation paths compute from
         the same expressions. *)
      let levels =
        List.map
          (fun comps ->
            ( Defs.make ~builtins
                (List.map (fun (_, _, fix_def, _) -> fix_def) comps),
              List.map (fun (c, preds, _, _) -> (c, preds)) comps ))
          level_comps
      in
      let db =
        List.fold_left
          (fun db pred ->
            let tuples =
              List.map Datalog_to_alg.tuple_of_args (Edb.tuples edb pred)
            in
            if List.mem pred idb then Db.add_elems (edb_alias pred) tuples db
            else Db.add_elems pred tuples db)
          Db.empty (Edb.preds edb)
      in
      let db =
        List.fold_left
          (fun db pred -> if Db.find db pred = None then Db.add_elems pred [] db else db)
          db (Program.edb_preds program)
      in
      Ok
        {
          defs = Defs.make ~builtins defs;
          db;
          pred_constants = List.map (fun p -> (p, p)) idb;
          levels;
        })

let eval_pred ?fuel ?advice t pred =
  let value = Eval.eval ?fuel ?advice t.defs t.db (Expr.rel pred) in
  List.filter_map
    (fun v ->
      match Value.node v with
      | Value.Tuple args -> Some args
      | _ -> None)
    (Value.elements value)

(* Untag directly on the value level: keep the [ [pred, args] ] pairs
   and project the args. Identical to evaluating [untag pred] on the
   materialised set. *)
let untag_value pred v =
  let tag = tag_sym pred in
  Value.filter_map_set
    (fun el ->
      match Value.node el with
      | Value.Tuple [ t; args ] when Value.equal t tag -> Some args
      | _ -> None)
    v

let eval_all ?fuel ?advice t =
  let module Obs = Recalg_obs.Obs in
  let _, out =
    List.fold_left
      (fun (db, out) (level_defs, comps) ->
        (* One level = one stratum; its components are independent
           fixpoints over the database extended with all earlier levels,
           so they evaluate as parallel tasks. Pool.map keeps component
           order, each component's evaluation is deterministic, and the
           shared fuel budget spends the sum of the per-component costs
           — the same total in any interleaving and at any pool size. *)
        if Obs.enabled () && List.length comps > 1 then
          Obs.count "pool/strata_tasks" (List.length comps);
        let values =
          Pool.map
            (fun (fix_const, _) ->
              Eval.eval ?fuel ?advice level_defs db (Expr.rel fix_const))
            comps
        in
        List.fold_left2
          (fun (db, out) (fix_const, preds) v ->
            let db = Db.add fix_const v db in
            List.fold_left
              (fun (db, out) pred ->
                let pv = untag_value pred v in
                (Db.add pred pv db, (pred, pv) :: out))
              (db, out) preds)
          (db, out) comps values)
      (t.db, []) t.levels
  in
  List.rev out
