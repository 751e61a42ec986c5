(* Incremental view maintenance: after any sequence of update batches,
   the resident engines agree byte-for-byte with from-scratch evaluation
   on the final database — for the algebra evaluator (Eval), the
   three-valued recursive evaluator (Rec_eval), and the Datalog engines.
   The unit cases below pin each maintenance regime; the random update
   sequences are the [incremental] knob of the oracle (test_oracle.ml). *)

open Recalg
open Algebra
module I = Incremental

let value = Alcotest.testable Value.pp Value.equal
let vp a b = Value.pair (Value.sym a) (Value.sym b)

let edge_db edges =
  Db.of_list [ ("edge", List.map (fun (a, b) -> vp a b) edges) ]

let no_defs = Defs.make []

let tc_expr =
  (* IFP x. edge ∪ (edge ; x) — transitive closure. *)
  Expr.ifp "x" (Expr.union (Expr.rel "edge") (Tgen.compose_expr (Expr.rel "edge") (Expr.rel "x")))

let scratch db e = Eval.eval no_defs db e

(* ------------------------------------------------------------------ *)
(* Unit tests: the three IFP maintenance regimes on transitive closure. *)

let test_tc_insert () =
  let eng = I.init no_defs (edge_db [ ("a", "b"); ("c", "d") ]) tc_expr in
  let u = I.Update.(insert "edge" (vp "b" "c") empty) in
  let got = I.update eng u in
  Alcotest.check value "extension = scratch" (scratch (I.db eng) tc_expr) got;
  Alcotest.(check bool) "bridge derived" true (Value.mem (vp "a" "d") got)

let test_tc_delete () =
  let eng =
    I.init no_defs (edge_db [ ("a", "b"); ("b", "c"); ("c", "d") ]) tc_expr
  in
  let u = I.Update.(delete "edge" (vp "b" "c") empty) in
  let got = I.update eng u in
  Alcotest.check value "DRed = scratch" (scratch (I.db eng) tc_expr) got;
  Alcotest.(check bool) "pair gone" false (Value.mem (vp "a" "d") got)

let test_tc_mixed_batch () =
  let eng = I.init no_defs (edge_db [ ("a", "b"); ("b", "c") ]) tc_expr in
  let u =
    I.Update.(
      empty |> delete "edge" (vp "b" "c") |> insert "edge" (vp "b" "d")
      |> insert "edge" (vp "d" "a"))
  in
  let got = I.update eng u in
  Alcotest.check value "mixed = scratch" (scratch (I.db eng) tc_expr) got

let test_noop_batch () =
  let eng = I.init no_defs (edge_db [ ("a", "b") ]) tc_expr in
  let before = I.value eng in
  let u =
    I.Update.(
      empty
      |> insert "edge" (vp "a" "b") (* already present *)
      |> delete "edge" (vp "c" "d") (* absent *)
      |> insert "edge" (vp "e" "f")
      |> delete "edge" (vp "e" "f") (* cancels in the batch *))
  in
  let got = I.update eng u in
  Alcotest.check value "no-op batch keeps the value" before got

(* A non-monotone fixpoint body (the variable under a Diff right side):
   the engine must fall back to recompute and still agree with scratch. *)
let test_nonpositive_fallback () =
  let body =
    Expr.union (Expr.rel "edge")
      (Expr.diff (Expr.lit [ vp "a" "a"; vp "b" "b" ]) (Expr.rel "x"))
  in
  let e = Expr.ifp "x" body in
  let eng = I.init no_defs (edge_db [ ("a", "b") ]) e in
  let u = I.Update.(delete "edge" (vp "a" "b") empty) in
  let got = I.update eng u in
  Alcotest.check value "fallback = scratch" (scratch (I.db eng) e) got

(* MAP with colliding sources: deleting one source must keep the image
   alive while the other remains — the resident multiset image at work. *)
let test_map_multiset_image () =
  let e = Expr.pi 1 (Expr.rel "edge") in
  let eng = I.init no_defs (edge_db [ ("a", "b"); ("a", "c") ]) e in
  let u = I.Update.(delete "edge" (vp "a" "b") empty) in
  let got = I.update eng u in
  Alcotest.(check bool) "image survives" true (Value.mem (Value.sym "a") got);
  Alcotest.check value "map = scratch" (scratch (I.db eng) e) got;
  let u2 = I.Update.(delete "edge" (vp "a" "c") empty) in
  let got2 = I.update eng u2 in
  Alcotest.(check bool) "image dies with last source" false
    (Value.mem (Value.sym "a") got2)

let test_undefined_relation () =
  Alcotest.check_raises "missing relation"
    (I.Undefined_relation "edge") (fun () ->
      ignore (I.init no_defs Db.empty tc_expr))

(* ------------------------------------------------------------------ *)
(* The Rec engine: resident recursive solutions.                       *)

let tc_defs =
  Defs.make
    [
      Defs.constant "T"
        (Expr.union (Expr.rel "edge")
           (Tgen.compose_expr (Expr.rel "edge") (Expr.rel "T")));
    ]

let check_rec_matches_scratch eng =
  let sol = Rec_eval.solve tc_defs (I.Rec.db eng) in
  let vs = I.Rec.constant eng "T" and vs' = Rec_eval.constant sol "T" in
  Value.equal vs.Rec_eval.low vs'.Rec_eval.low
  && Value.equal vs.Rec_eval.high vs'.Rec_eval.high

let test_rec_insert () =
  let eng = I.Rec.init tc_defs (edge_db [ ("a", "b"); ("c", "d") ]) in
  I.Rec.update eng I.Update.(insert "edge" (vp "b" "c") empty);
  Alcotest.(check bool) "extend = scratch" true (check_rec_matches_scratch eng);
  let vs = I.Rec.constant eng "T" in
  Alcotest.(check bool) "bridge derived" true
    (Value.mem (vp "a" "d") vs.Rec_eval.low)

let test_rec_delete_falls_back () =
  let eng = I.Rec.init tc_defs (edge_db [ ("a", "b"); ("b", "c") ]) in
  I.Rec.update eng I.Update.(delete "edge" (vp "a" "b") empty);
  Alcotest.(check bool) "recompute = scratch" true
    (check_rec_matches_scratch eng)

(* ------------------------------------------------------------------ *)
(* The Datalog layer: Seminaive materialization + the grounder's        *)
(* resident envelope.                                                   *)

module DI = Datalog.Incremental
module DU = Datalog.Edb.Update

let efact a b = [ Value.sym a; Value.sym b ]

let dl_batch ops =
  List.fold_left
    (fun u (ins, (a, b)) ->
      if ins then DU.insert "e" (efact a b) u else DU.delete "e" (efact a b) u)
    DU.empty ops

let dl_scratch program edb =
  match Datalog.Seminaive.stratified program edb with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let dl_tc_program =
  let x = Datalog.Dterm.var "X"
  and y = Datalog.Dterm.var "Y"
  and z = Datalog.Dterm.var "Z" in
  Datalog.Program.make
    [
      Datalog.Rule.make
        (Datalog.Literal.atom "path" [ x; y ])
        [ Datalog.Literal.pos "e" [ x; y ] ];
      Datalog.Rule.make
        (Datalog.Literal.atom "path" [ x; y ])
        [ Datalog.Literal.pos "e" [ x; z ]; Datalog.Literal.pos "path" [ z; y ] ];
    ]

let dl_init program edb =
  match DI.init program edb with
  | Ok t -> t
  | Error msg -> Alcotest.fail msg

let edb_equal = Alcotest.testable Datalog.Edb.pp Datalog.Edb.equal

let test_dl_insert () =
  let t = dl_init dl_tc_program (Tgen.e_edb [ ("a", "b"); ("c", "d") ]) in
  let got = DI.update t (dl_batch [ (true, ("b", "c")) ]) in
  Alcotest.check edb_equal "resume = scratch"
    (dl_scratch dl_tc_program (DI.edb t))
    got;
  Alcotest.(check bool) "bridge derived" true (DI.holds t "path" (efact "a" "d"))

let test_dl_delete () =
  let t =
    dl_init dl_tc_program (Tgen.e_edb [ ("a", "b"); ("b", "c"); ("c", "d") ])
  in
  let got = DI.update t (dl_batch [ (false, ("b", "c")) ]) in
  Alcotest.check edb_equal "DRed = scratch"
    (dl_scratch dl_tc_program (DI.edb t))
    got;
  Alcotest.(check bool) "pair gone" false (DI.holds t "path" (efact "a" "d"))

let test_dl_negation_recompute () =
  (* Stratified negation: a deletion *grows* iso — must take the
     recompute path and still agree with scratch. *)
  let x = Datalog.Dterm.var "X" and y = Datalog.Dterm.var "Y" in
  let program =
    Datalog.Program.make
      [
        Datalog.Rule.make
          (Datalog.Literal.atom "t" [ x ])
          [ Datalog.Literal.pos "e" [ x; y ] ];
        Datalog.Rule.make
          (Datalog.Literal.atom "iso" [ x ])
          [ Datalog.Literal.pos "n" [ x ]; Datalog.Literal.neg "t" [ x ] ];
      ]
  in
  let edb =
    Datalog.Edb.add "n" [ Value.sym "a" ]
      (Datalog.Edb.add "n" [ Value.sym "b" ] (Tgen.e_edb [ ("a", "b") ]))
  in
  let t = dl_init program edb in
  Alcotest.(check bool) "a connected" false (DI.holds t "iso" [ Value.sym "a" ]);
  let got = DI.update t (dl_batch [ (false, ("a", "b")) ]) in
  Alcotest.check edb_equal "recompute = scratch"
    (dl_scratch program (DI.edb t))
    got;
  Alcotest.(check bool) "a isolated now" true
    (DI.holds t "iso" [ Value.sym "a" ])

(* The grounder's resident envelope, judged through the valid semantics:
   negation and non-stratified programs are fully in scope, and the
   comparison is interpretation-level (Interp.equal), insensitive to
   stale interned atoms. *)
let test_live_ground_retracts () =
  let live =
    Datalog.Run.Live.start ~semantics:`Valid dl_tc_program
      (Tgen.e_edb [ ("a", "b"); ("b", "c") ])
  in
  let i = Datalog.Run.Live.update live (dl_batch [ (false, ("a", "b")) ]) in
  Alcotest.(check bool) "path b c survives" true
    (Tvl.equal (Datalog.Interp.holds i "path" (efact "b" "c")) Tvl.True);
  Alcotest.(check bool) "path a c gone" false
    (Tvl.equal (Datalog.Interp.holds i "path" (efact "a" "c")) Tvl.True);
  Alcotest.(check bool) "= scratch" true
    (Datalog.Interp.equal i
       (Datalog.Run.valid dl_tc_program (Datalog.Run.Live.edb live)))

let suite =
  [
    Alcotest.test_case "TC single insert (extension)" `Quick test_tc_insert;
    Alcotest.test_case "TC single delete (DRed)" `Quick test_tc_delete;
    Alcotest.test_case "TC mixed batch" `Quick test_tc_mixed_batch;
    Alcotest.test_case "no-op batches" `Quick test_noop_batch;
    Alcotest.test_case "non-positive body falls back" `Quick
      test_nonpositive_fallback;
    Alcotest.test_case "MAP keeps a multiset image" `Quick
      test_map_multiset_image;
    Alcotest.test_case "undefined relation" `Quick test_undefined_relation;
    Alcotest.test_case "Rec insert extends" `Quick test_rec_insert;
    Alcotest.test_case "Rec delete recomputes" `Quick
      test_rec_delete_falls_back;
    Alcotest.test_case "Datalog insert resumes" `Quick test_dl_insert;
    Alcotest.test_case "Datalog delete runs DRed" `Quick test_dl_delete;
    Alcotest.test_case "Datalog negation recomputes" `Quick
      test_dl_negation_recompute;
    Alcotest.test_case "live grounding retracts" `Quick
      test_live_ground_retracts;
  ]
