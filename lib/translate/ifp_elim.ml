open Recalg_kernel
open Recalg_algebra
module Obs = Recalg_obs.Obs

type t = {
  defs : Defs.t;
  db : Db.t;
  query_constant : string;
  stage_bound : int;
}

let rec uses_ifp e =
  match e with
  | Expr.Ifp _ -> true
  | Expr.Rel _ | Expr.Lit _ | Expr.Param _ -> false
  | Expr.Union (a, b) | Expr.Diff (a, b) | Expr.Product (a, b) ->
    uses_ifp a || uses_ifp b
  | Expr.Select (_, a) | Expr.Map (_, a) -> uses_ifp a
  | Expr.Call (_, args) -> List.exists uses_ifp args

let defs_use_ifp defs =
  List.exists (fun d -> uses_ifp d.Defs.body) (Defs.defs defs)

let saturation_bound ?fuel ?initial_bound program edb =
  (* Reuse the growing-bound evaluation to certify a sufficient stage
     count, then rebuild the staged program at that bound. *)
  let _, bound = Inflationary_removal.eval ?fuel ?initial_bound program edb in
  bound

let eliminate ?fuel ?initial_bound defs db expr =
  Obs.span "ifp_elim" @@ fun () ->
  (* Step 1 (Prop 5.1): naive translation; exact under inflationary
     semantics when IFP is present. *)
  let tr = Alg_to_datalog.translate defs db expr in
  (* Step 2 (Prop 5.2): stage indices make the valid semantics compute the
     inflationary model. *)
  let bound = saturation_bound ?fuel ?initial_bound tr.Alg_to_datalog.program tr.Alg_to_datalog.edb in
  let staged_program, staged_edb =
    Inflationary_removal.transform ~max_stage:bound tr.Alg_to_datalog.program
      tr.Alg_to_datalog.edb
  in
  (* Step 3 (Prop 6.1): back to recursive algebra equations. *)
  let back = Datalog_to_alg.translate staged_program staged_edb in
  (* The elimination's output size: how large an algebra= program the
     Theorem 3.5 pipeline manufactures for this query. *)
  if Obs.enabled () then begin
    Obs.count "ifp_elim/stage_bound" bound;
    Obs.count "ifp_elim/defs" (List.length (Defs.defs back.Datalog_to_alg.defs));
    Obs.count "ifp_elim/rules" (List.length staged_program.Recalg_datalog.Program.rules)
  end;
  {
    defs = back.Datalog_to_alg.defs;
    db = back.Datalog_to_alg.db;
    query_constant = tr.Alg_to_datalog.query_pred;
    stage_bound = bound;
  }

let query_value ?fuel ?window ?advice t =
  let solution = Rec_eval.solve ?fuel ?window ?advice t.defs t.db in
  let vset = Rec_eval.constant solution t.query_constant in
  let unwrap v =
    match Value.node v with
    | Value.Tuple [ x ] -> Some x
    | _ -> None
  in
  {
    Rec_eval.low = Value.filter_map_set unwrap vset.Rec_eval.low;
    high = Value.filter_map_set unwrap vset.Rec_eval.high;
  }
