(* Planner tests: stats sampling and persistence, the join-order
   rewrite, semijoin reduction, and the cardinality estimates behind
   Datalog body ordering. The headline property — planned evaluation is
   byte-identical to unplanned evaluation — is the [plan] knobs of the
   oracle (test_oracle.ml), over random join regions, IFP bodies,
   recursive systems and Datalog programs. *)

open Recalg
open Algebra
module Stats = Plan.Stats
module Planner = Plan.Planner

let check_value = Alcotest.testable Value.pp Value.equal
let vi = Value.int
let no_defs = Defs.make []
let vpair a b = Value.tuple [ a; b ]
let ipair a b = vpair (vi a) (vi b)

(* --- stats --- *)

let test_stats_observe () =
  let v = Value.set [ ipair 1 10; ipair 2 10; ipair 3 11 ] in
  let s = Stats.observe "r" v Stats.empty in
  Alcotest.(check (option int)) "card" (Some 3) (Stats.card s "r");
  Alcotest.(check (option int)) "distinct col1" (Some 3) (Stats.distinct s "r" 1);
  Alcotest.(check (option int)) "distinct col2" (Some 2) (Stats.distinct s "r" 2);
  Alcotest.(check bool) "fresh" true (Stats.fresh s "r" v);
  let v' = Value.set [ ipair 1 10 ] in
  Alcotest.(check bool) "stale" false (Stats.fresh s "r" v')

let test_stats_roundtrip () =
  let db =
    Db.empty
    |> Db.add "big" (Value.set (List.init 40 (fun i -> ipair i (i mod 4))))
    |> Db.add "tiny" (Value.set [ ipair 0 0 ])
  in
  let s = Stats.of_db db in
  let file = Filename.temp_file "recalg" ".stats" in
  Stats.save file s;
  let s' = Option.get (Stats.load file) in
  Sys.remove file;
  List.iter
    (fun name ->
      Alcotest.(check (option int))
        (name ^ " card") (Stats.card s name) (Stats.card s' name);
      Alcotest.(check (option int))
        (name ^ " fp") (Stats.fingerprint s name) (Stats.fingerprint s' name);
      Alcotest.(check (option int))
        (name ^ " d1") (Stats.distinct s name 1) (Stats.distinct s' name 1))
    [ "big"; "tiny" ];
  (* prune_stale drops the entry whose relation changed. *)
  let db2 = Db.add "tiny" (Value.set [ ipair 5 5 ]) db in
  let pruned = Stats.prune_stale db2 s' in
  Alcotest.(check (option int)) "stale dropped" None (Stats.card pruned "tiny");
  Alcotest.(check (option int)) "fresh kept" (Some 40) (Stats.card pruned "big")

let test_stats_load_garbage () =
  let file = Filename.temp_file "recalg" ".stats" in
  let oc = open_out file in
  output_string oc "not a stats file\n";
  close_out oc;
  Alcotest.(check bool) "garbage -> None" true (Stats.load file = None);
  Sys.remove file;
  Alcotest.(check bool) "missing -> None" true (Stats.load file = None)

(* --- join regions --- *)

(* Component [c] of the leaf reached by [path] from the region root. *)
let key c path = Join.compose (Efun.Proj c) path

(* A chain join a.2 = b.1, b.2 = c.1 written left-deep:
   sigma((a x b) x c). *)
let chain_expr =
  let pa = Efun.Compose (Efun.Proj 1, Efun.Proj 1)
  and pb = Efun.Compose (Efun.Proj 2, Efun.Proj 1)
  and pc = Efun.Proj 2 in
  Expr.(
    select
      (Pred.And
         ( Pred.Eq (key 2 pa, key 1 pb),
           Pred.Eq (key 2 pb, key 1 pc) ))
      (product (product (rel "a") (rel "b")) (rel "c")))

let chain_db na nb nc =
  let mk n = Value.set (List.init n (fun i -> ipair (i mod 7) ((i + 1) mod 7))) in
  Db.empty |> Db.add "a" (mk na) |> Db.add "b" (mk nb) |> Db.add "c" (mk nc)

let test_rewrite_identity_off () =
  let e = chain_expr in
  let p = Planner.create Planner.Off in
  Alcotest.(check bool) "off = id" true (Expr.equal e (Planner.rewrite p e));
  Alcotest.(check bool) "off advice none" true
    (Advice.is_none (Planner.advice p))

let test_rewrite_preserves_chain () =
  let db = chain_db 30 20 10 in
  let e = chain_expr in
  let expected = Eval.eval no_defs db e in
  List.iter
    (fun mode ->
      let p = Planner.create ~stats:(Stats.of_db db) mode in
      let e' = Planner.rewrite p e in
      Alcotest.check check_value
        ("planned = unplanned (" ^ Planner.mode_to_string mode ^ ")")
        expected (Eval.eval no_defs db e');
      Alcotest.check check_value
        ("advice path (" ^ Planner.mode_to_string mode ^ ")")
        expected
        (Eval.eval ~advice:(Planner.advice p) no_defs db e))
    [ Planner.Greedy; Planner.Cost ]

let test_reorder_reported () =
  (* Two big relations crossed first syntactically, the tiny centre
     joined last; the planner must reorder and say so in its report —
     and the win must also cover the reshape the reordering owes. *)
  let big i = ipair i (i mod 7) in
  let db =
    Db.empty
    |> Db.add "a" (Value.set (List.init 100 big))
    |> Db.add "b" (Value.set (List.init 100 big))
    |> Db.add "c"
         (Value.set (List.init 4 (fun i -> ipair (i mod 7) ((i + 1) mod 7))))
  in
  let pa = Efun.Compose (Efun.Proj 1, Efun.Proj 1)
  and pb = Efun.Compose (Efun.Proj 2, Efun.Proj 1)
  and pc = Efun.Proj 2 in
  let e =
    Expr.(
      select
        (Pred.And
           (Pred.Eq (key 2 pa, key 1 pc), Pred.Eq (key 2 pb, key 2 pc)))
        (product (product (rel "a") (rel "b")) (rel "c")))
  in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let e' = Planner.rewrite p e in
  Alcotest.check check_value "reordered result equal"
    (Eval.eval no_defs db e) (Eval.eval no_defs db e');
  match Planner.reports p with
  | [ r ] ->
    Alcotest.(check bool) "reordered" true r.Planner.reordered;
    Alcotest.(check bool) "cheaper" true
      (r.Planner.est_cost_chosen <= r.Planner.est_cost_original)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_semijoin_reported () =
  (* pi_a(sigma_{a.1 = b.1}(a x b)) — b is only touched through the
     equi-key, and its key column repeats, so a semijoin reducer fires. *)
  let a = Value.set (List.init 20 (fun i -> ipair i (i mod 3))) in
  let b = Value.set (List.init 40 (fun i -> ipair (i mod 5) i)) in
  let db = Db.empty |> Db.add "a" a |> Db.add "b" b in
  let e =
    Expr.(
      map (Efun.Proj 1)
        (select
           (Pred.Eq (key 1 (Efun.Proj 1), key 1 (Efun.Proj 2)))
           (product (rel "a") (rel "b"))))
  in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let e' = Planner.rewrite p e in
  Alcotest.check check_value "semijoin result equal"
    (Eval.eval no_defs db e) (Eval.eval no_defs db e');
  match Planner.reports p with
  | [ r ] -> Alcotest.(check int) "one semijoin" 1 r.Planner.semijoins
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_pushdown_attaches_once () =
  (* A per-leaf conjunct plus an equi conjunct: the pushdown must apply
     exactly once and the result stay equal. *)
  let db = chain_db 25 25 25 in
  let e =
    Expr.(
      select
        (Pred.And
           ( Pred.Eq
               (key 2 (Efun.Proj 1), key 1 (Efun.Proj 2)),
             Pred.Lt (key 1 (Efun.Proj 1), Efun.Const (vi 5)) ))
        (product (rel "a") (rel "b")))
  in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let e' = Planner.rewrite p e in
  Alcotest.check check_value "pushdown result equal"
    (Eval.eval no_defs db e) (Eval.eval no_defs db e');
  match Planner.reports p with
  | [ r ] -> Alcotest.(check int) "one pushdown" 1 r.Planner.pushdowns
  | _ -> Alcotest.fail "expected one report"

let test_fuel_pinned () =
  (* Plan choice must not change fuel on the shapes we ship: transitive
     closure over the planned chain join spends the same fuel planned
     and unplanned (documented caveat: this is pinned by test, not
     promised by the contract). *)
  let db = chain_db 30 12 6 in
  let tc =
    Expr.(
      ifp "t"
        (union (rel "a")
           (map
              (Efun.Tuple_of
                 [ Efun.Compose (Efun.Proj 1, Efun.Proj 1);
                   Efun.Compose (Efun.Proj 2, Efun.Proj 2) ])
              (select
                 (Pred.Eq (key 2 (Efun.Proj 1), key 1 (Efun.Proj 2)))
                 (product (rel "t") (rel "a"))))))
  in
  let run advice =
    let fuel = Limits.of_int 10_000 in
    let v = Eval.eval ~fuel ?advice no_defs db tc in
    (v, Limits.remaining fuel)
  in
  let v0, f0 = run None in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let v1, f1 = run (Some (Planner.advice p)) in
  Alcotest.check check_value "tc equal" v0 v1;
  Alcotest.(check (option int)) "fuel equal" f0 f1

(* --- datalog: cardinality estimates for body-literal ordering --- *)

let test_cardest_ranks () =
  (* tiny(1 fact) must rank before edge(4 facts); the derived closure
     saturates above both. *)
  let x = Datalog.Dterm.var "X" and y = Datalog.Dterm.var "Y" in
  let z = Datalog.Dterm.var "Z" in
  let program =
    Datalog.Program.make
      [ Datalog.Rule.make (Datalog.Literal.atom "tc" [ x; y ])
          [ Datalog.Literal.pos "edge" [ x; y ] ];
        Datalog.Rule.make (Datalog.Literal.atom "tc" [ x; z ])
          [ Datalog.Literal.pos "edge" [ x; y ];
            Datalog.Literal.pos "tc" [ y; z ] ] ]
  in
  let edb =
    Datalog.Edb.of_list
      [ ("edge",
         [ [ vi 1; vi 2 ]; [ vi 2; vi 3 ]; [ vi 3; vi 4 ]; [ vi 4; vi 1 ] ]);
        ("tiny", [ [ vi 1; vi 2 ] ]) ]
  in
  let est = Datalog.Cardest.estimates program edb in
  Alcotest.(check bool) "tiny < edge" true (est "tiny" < est "edge");
  Alcotest.(check bool) "edge <= tc" true (est "edge" <= est "tc");
  let prefer = Datalog.Cardest.prefer program edb in
  Alcotest.(check bool) "pos tiny preferred" true
    (prefer (Datalog.Literal.pos "tiny" [ x; y ])
    < prefer (Datalog.Literal.pos "edge" [ x; y ]))

let suite =
  [
    Alcotest.test_case "stats observe" `Quick test_stats_observe;
    Alcotest.test_case "stats roundtrip" `Quick test_stats_roundtrip;
    Alcotest.test_case "stats load garbage" `Quick test_stats_load_garbage;
    Alcotest.test_case "rewrite off = id" `Quick test_rewrite_identity_off;
    Alcotest.test_case "rewrite preserves chain" `Quick
      test_rewrite_preserves_chain;
    Alcotest.test_case "reorder reported" `Quick test_reorder_reported;
    Alcotest.test_case "semijoin reported" `Quick test_semijoin_reported;
    Alcotest.test_case "pushdown attaches once" `Quick
      test_pushdown_attaches_once;
    Alcotest.test_case "fuel pinned on tc" `Quick test_fuel_pinned;
    Alcotest.test_case "cardest ranks relations" `Quick test_cardest_ranks;
  ]
