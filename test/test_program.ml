(* Program/Edb/Interp/Grounder/Relstore utility tests. *)

open Recalg
open Datalog

let vi = Value.int
let vs = Value.sym

let parse = Parser.parse_exn

let test_program_pred_classification () =
  let program, _ = parse "p(X) :- e(X, Y), not q(Y). q(X) :- e(X, X)." in
  Alcotest.(check (list string)) "idb" [ "p"; "q" ] (Program.idb_preds program);
  Alcotest.(check (list string)) "edb" [ "e" ] (Program.edb_preds program);
  Alcotest.(check (list string)) "all" [ "p"; "e"; "q" ] (Program.all_preds program)

let test_program_dependencies () =
  let program, _ = parse "p(X) :- e(X, Y), not q(Y)." in
  let deps = Program.dependencies program in
  Alcotest.(check bool) "pos dep" true (List.mem ("p", "e", `Pos) deps);
  Alcotest.(check bool) "neg dep" true (List.mem ("p", "q", `Neg) deps)

let test_program_constants_functions () =
  let program, _ = parse "p(X) :- e(X, 7), X = add(Y, 1), q(s(Y))." in
  Alcotest.(check bool) "constant 7" true
    (List.exists (Value.equal (vi 7)) (Program.constants program));
  let fns = Program.function_symbols program in
  Alcotest.(check bool) "add/2" true (List.mem ("add", 2) fns);
  Alcotest.(check bool) "s/1" true (List.mem ("s", 1) fns)

let test_program_union () =
  let p1, _ = parse "p(X) :- e(X)." in
  let p2, _ = parse "q(X) :- e(X)." in
  let u = Program.union p1 p2 in
  Alcotest.(check int) "rules" 2 (List.length u.Program.rules)

let test_rules_for () =
  let program, _ = parse "p(X) :- e(X). p(X) :- f(X). q(X) :- e(X)." in
  Alcotest.(check int) "two p rules" 2 (List.length (Program.rules_for program "p"));
  Alcotest.(check int) "no r rules" 0 (List.length (Program.rules_for program "r"))

let test_edb_ops () =
  let edb =
    Edb.of_list [ ("e", [ [ vi 1; vi 2 ]; [ vi 2; vi 3 ] ]); ("d", [ [ vs "a" ] ]) ]
  in
  Alcotest.(check int) "cardinal" 2 (Edb.cardinal edb "e");
  Alcotest.(check bool) "mem" true (Edb.mem edb "e" [ vi 1; vi 2 ]);
  Alcotest.(check bool) "not mem" false (Edb.mem edb "e" [ vi 9; vi 9 ]);
  Alcotest.(check (list string)) "preds" [ "d"; "e" ] (Edb.preds edb);
  let edb2 = Edb.add "e" [ vi 1; vi 2 ] edb in
  Alcotest.(check bool) "idempotent add" true (Edb.equal edb edb2);
  let union = Edb.union edb (Edb.of_list [ ("e", [ [ vi 5; vi 6 ] ]) ]) in
  Alcotest.(check int) "union" 3 (Edb.cardinal union "e")

let test_interp_false_tuples () =
  let program, edb = parse "move(a,b). win(X) :- move(X,Y), not win(Y)." in
  let interp = Run.valid program edb in
  (* win(b) appears in the grounded base and is false. *)
  Alcotest.(check bool) "win(b) reported false" true
    (List.mem [ vs "b" ] (Interp.false_tuples interp "win"));
  Alcotest.(check bool) "preds include win" true (List.mem "win" (Interp.preds interp));
  let edb' = Interp.to_edb interp in
  Alcotest.(check bool) "to_edb has winner" true (Edb.mem edb' "win" [ vs "a" ])

let test_interp_counts () =
  let program, edb = parse "move(a,a). win(X) :- move(X,Y), not win(Y)." in
  let interp = Run.valid program edb in
  Alcotest.(check int) "one true (the move)" 1 (Interp.count_true interp);
  Alcotest.(check int) "one undef" 1 (Interp.count_undef interp);
  Alcotest.(check bool) "not total" false (Interp.is_total interp)

(* A model of [Relstore]: per predicate, the three sections as plain
   sets, driven by the same random sequence of discover / promote /
   reload steps (a reload is what [Grounder.Live] does on retract and
   restore). After every step each section, and every probe of it on
   every column and key, must equal the model's section filtered by that
   key — which pins the in-place index upkeep on promote — [size] must
   count [full] and [delta], and the sections must stay pairwise
   disjoint. *)
type store_op =
  | Discover of string * int * int
  | Promote
  | Reload of string * (int * int) list * (int * int) list

let store_op_gen =
  QCheck.Gen.(
    let pred = oneofl [ "p"; "q" ] in
    let cell = int_range 0 3 in
    let tup = pair cell cell in
    frequency
      [ (6, map3 (fun p a b -> Discover (p, a, b)) pred cell cell);
        (3, return Promote);
        ( 1,
          map3
            (fun p full delta -> Reload (p, full, delta))
            pred
            (list_size (int_range 0 6) tup)
            (list_size (int_range 0 4) tup) ) ])

let pp_store_op = function
  | Discover (p, a, b) -> Printf.sprintf "discover %s(%d,%d)" p a b
  | Promote -> "promote"
  | Reload (p, full, delta) ->
    let l = List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) in
    Printf.sprintf "reload %s full=[%s] delta=[%s]" p
      (String.concat " " (l full)) (String.concat " " (l delta))

let prop_relstore_model =
  QCheck.Test.make ~name:"relstore: probes = filtered sections, disjoint"
    ~count:(Tgen.qcount 200)
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_store_op ops))
       QCheck.Gen.(list_size (int_range 0 40) store_op_gen))
    (fun ops ->
      let module T = Edb.Tuples in
      let tup (a, b) = [ vi a; vi b ] in
      let of_list l = T.of_list (List.map tup l) in
      let store = Relstore.create () in
      let model = Hashtbl.create 2 in
      let get p =
        Option.value (Hashtbl.find_opt model p) ~default:(T.empty, T.empty, T.empty)
      in
      let step = function
        | Discover (p, a, b) ->
          let t = tup (a, b) in
          Relstore.discover store p t;
          let full, delta, next = get p in
          if not (T.mem t full || T.mem t delta) then
            Hashtbl.replace model p (full, delta, T.add t next)
        | Promote ->
          Relstore.promote store;
          Hashtbl.filter_map_inplace
            (fun _ (full, delta, next) -> Some (T.union full delta, next, T.empty))
            model
        | Reload (p, full, delta) ->
          let full = of_list full in
          let delta = T.diff (of_list delta) full in
          Relstore.load store p ~full ~delta;
          Hashtbl.replace model p (full, delta, T.empty)
      in
      let consistent p =
        let full, delta, next = get p in
        let next' =
          Relstore.fold
            (fun q ~full:_ ~delta:_ ~next acc -> if q = p then next else acc)
            store T.empty
        in
        let probes_ok sec set =
          T.equal (Relstore.section store p sec) set
          && List.for_all
               (fun col ->
                 List.for_all
                   (fun key ->
                     T.equal
                       (Relstore.probe store p sec col (vi key))
                       (T.filter
                          (fun t -> Value.equal (List.nth t col) (vi key))
                          set))
                   [ 0; 1; 2; 3 ])
               [ 0; 1 ]
        in
        T.equal next next'
        && Relstore.size store p = T.cardinal full + T.cardinal delta
        && probes_ok Relstore.Full full
        && probes_ok Relstore.Delta delta
        && T.is_empty (T.inter full delta)
        && T.is_empty (T.inter full next)
        && T.is_empty (T.inter delta next)
      in
      List.for_all
        (fun op ->
          step op;
          consistent "p" && consistent "q")
        ops)

let test_subst_ops () =
  let s = Subst.bind "X" (vi 1) Subst.empty in
  Alcotest.(check bool) "find" true (Subst.find "X" s = Some (vi 1));
  Alcotest.(check bool) "consistent rebind" true
    (Subst.bind_consistent "X" (vi 1) s <> None);
  Alcotest.(check bool) "inconsistent rebind" true
    (Subst.bind_consistent "X" (vi 2) s = None);
  Alcotest.(check bool) "mem" true (Subst.mem "X" s);
  Alcotest.(check int) "bindings" 1 (List.length (Subst.bindings s))

let test_rule_utilities () =
  let program, _ = parse "p(X, Z) :- e(X, Y), Z = add(X, Y), not q(Y)." in
  match program.Program.rules with
  | [ r ] ->
    Alcotest.(check (list string)) "vars in order" [ "X"; "Z"; "Y" ] (Rule.vars r);
    Alcotest.(check bool) "not a fact" false (Rule.is_fact r);
    let renamed = Rule.rename (fun v -> v ^ "0") r in
    Alcotest.(check (list string)) "renamed" [ "X0"; "Z0"; "Y0" ] (Rule.vars renamed)
  | _ -> Alcotest.fail "expected one rule"

let suite =
  [
    Alcotest.test_case "pred classification" `Quick test_program_pred_classification;
    Alcotest.test_case "dependencies" `Quick test_program_dependencies;
    Alcotest.test_case "constants/functions" `Quick test_program_constants_functions;
    Alcotest.test_case "program union" `Quick test_program_union;
    Alcotest.test_case "rules_for" `Quick test_rules_for;
    Alcotest.test_case "edb operations" `Quick test_edb_ops;
    Alcotest.test_case "interp false tuples" `Quick test_interp_false_tuples;
    Alcotest.test_case "interp counts" `Quick test_interp_counts;
    Alcotest.test_case "subst operations" `Quick test_subst_ops;
    Alcotest.test_case "rule utilities" `Quick test_rule_utilities;
    QCheck_alcotest.to_alcotest prop_relstore_model;
  ]
