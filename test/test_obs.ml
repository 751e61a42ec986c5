(* Observability tests: the zero-cost-when-off invariant (traced and
   untraced runs are byte-identical in results and fuel; on random
   instances this is the [trace] knob of test_oracle.ml), exact fixpoint
   iteration counts read from a memory sink's event series and from the
   retained metrics registry, the JSONL event schema, and the span-path
   context on fuel exhaustion. *)

open Recalg

let vi = Value.int

(* --- workloads (mirrors bench/workloads.ml, small sizes) --- *)

let compose = Tgen.compose_expr

let tc_ifp =
  Algebra.Expr.(ifp "x" (union (rel "edge") (compose (rel "edge") (rel "x"))))

let chain_db n =
  Algebra.Db.of_list
    [ ("edge", List.init n (fun i -> Value.pair (vi i) (vi (i + 1)))) ]

let win_program = fst (Datalog.Parser.parse_exn "win(X) :- move(X,Y), not win(Y).")

let chain_moves n =
  let rec go i edb =
    if i >= n then edb
    else go (i + 1) (Datalog.Edb.add "move" [ vi i; vi (i + 1) ] edb)
  in
  go 0 Datalog.Edb.empty

let no_defs = Algebra.Defs.make []

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- the zero-cost-when-off invariant --- *)

let test_disabled_by_default () =
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  let r = Algebra.Eval.eval no_defs (chain_db 6) tc_ifp in
  Alcotest.(check int) "tc size" 21 (Value.cardinal r)

let spent fuel_budget f =
  let fuel = Limits.of_int fuel_budget in
  let r = f ~fuel in
  (r, Limits.remaining fuel)

let test_traced_untraced_identical_ifp () =
  let db = chain_db 8 in
  let plain, plain_fuel =
    spent 100_000 (fun ~fuel -> Algebra.Eval.eval ~fuel no_defs db tc_ifp)
  in
  let mem, _ = Obs.Sink.memory () in
  let traced, traced_fuel =
    Obs.with_sink mem (fun () ->
        spent 100_000 (fun ~fuel -> Algebra.Eval.eval ~fuel no_defs db tc_ifp))
  in
  Alcotest.(check bool) "same value" true (Value.equal plain traced);
  Alcotest.(check (option int)) "same fuel" plain_fuel traced_fuel

let test_traced_untraced_identical_join () =
  (* E6-style: a single fused join, traced vs untraced. *)
  let db = chain_db 12 in
  let expr = compose (Algebra.Expr.rel "edge") (Algebra.Expr.rel "edge") in
  let plain, plain_fuel =
    spent 100_000 (fun ~fuel -> Algebra.Eval.eval ~fuel no_defs db expr)
  in
  let mem, _ = Obs.Sink.memory () in
  let traced, traced_fuel =
    Obs.with_sink mem (fun () ->
        spent 100_000 (fun ~fuel -> Algebra.Eval.eval ~fuel no_defs db expr))
  in
  Alcotest.(check bool) "same value" true (Value.equal plain traced);
  Alcotest.(check (option int)) "same fuel" plain_fuel traced_fuel

let test_traced_untraced_identical_valid () =
  let edb = chain_moves 7 in
  let plain, plain_fuel =
    spent 100_000 (fun ~fuel -> Datalog.Run.valid ~fuel win_program edb)
  in
  let mem, _ = Obs.Sink.memory () in
  let traced, traced_fuel =
    Obs.with_sink mem (fun () ->
        spent 100_000 (fun ~fuel -> Datalog.Run.valid ~fuel win_program edb))
  in
  Alcotest.(check bool) "same interp" true (Datalog.Interp.equal plain traced);
  Alcotest.(check (option int)) "same fuel" plain_fuel traced_fuel

(* --- exact fixpoint iteration counts --- *)

(* Run [f] under a memory sink; return its result and the events. *)
let recorded f =
  let mem, events = Obs.Sink.memory () in
  let r = Obs.with_sink mem f in
  (r, events ())

(* The increments of one counter, in emission order. *)
let counter_series events name =
  List.filter_map
    (function
      | Obs.Event.Count { counter; n; _ } when String.equal counter name -> Some n
      | _ -> None)
    events

(* Run [f] with a fresh metrics registry collecting; return its result
   and the snapshot. *)
let collected f =
  Obs.Metrics.reset ();
  let r = Obs.Metrics.with_collecting f in
  (r, Obs.Metrics.snapshot ())

let test_summary_tc_iterations () =
  (* Semi-naive IFP over chain-n: the delta shrinks by one path length
     per round — n productive iterations plus the empty-delta one. *)
  let n = 6 in
  let r, events =
    recorded (fun () ->
        Algebra.Eval.eval
          ~advice:{ Algebra.Advice.none with strategy = Algebra.Delta.Seminaive }
          no_defs (chain_db n) tc_ifp)
  in
  Alcotest.(check int) "tc size" (n * (n + 1) / 2) (Value.cardinal r);
  Alcotest.(check int) "ifp iterations" (n + 1)
    (List.length (counter_series events "eval/ifp_iter"));
  Alcotest.(check (list int)) "delta sizes" [ 6; 5; 4; 3; 2; 1; 0 ]
    (counter_series events "eval/ifp_delta")

let test_summary_valid_rounds () =
  (* The win/move game: the profile's round count must equal the
     engine's own alternating-fixpoint iteration count. *)
  let edb = chain_moves 9 in
  let pg = Datalog.Grounder.ground win_program edb in
  let expected = Datalog.Valid.iterations pg in
  let interp, sn = collected (fun () -> Datalog.Run.valid win_program edb) in
  Alcotest.(check bool) "solved" true
    (Datalog.Interp.equal interp (Datalog.Valid.solve pg));
  Alcotest.(check int) "valid rounds" expected
    (Obs.Metrics.counter_events sn "valid/round");
  let round_spans =
    List.init expected (fun i ->
        Obs.Metrics.span_calls sn
          (Fmt.str "run.valid > valid > round %d" (i + 1)))
  in
  Alcotest.(check (list int)) "one span per round"
    (List.init expected (fun _ -> 1))
    round_spans

let test_summary_grounder_counters () =
  let edb = chain_moves 8 in
  let pg = Datalog.Grounder.ground win_program edb in
  let _, sn = collected (fun () -> Datalog.Grounder.ground win_program edb) in
  Alcotest.(check int) "atom universe" (Datalog.Propgm.n_atoms pg)
    (Obs.Metrics.counter_total sn "ground/atoms");
  Alcotest.(check bool) "rounds reported" true
    (Obs.Metrics.counter_events sn "ground/round" >= 1);
  Alcotest.(check bool) "envelope reported" true
    (Obs.Metrics.counter_total sn "ground/envelope" > 0)

let test_summary_rewrite_cache () =
  let spec = Spec.Prelude.nat_spec in
  let rec nat k = if k = 0 then Spec.Term.const "ZERO" else Spec.Term.op "SUCC" [ nat (k - 1) ] in
  let eq = Spec.Term.op "EQ" [ nat 3; nat 3 ] in
  let (), events =
    recorded (fun () ->
        let cache = Spec.Rewrite.cache () in
        ignore (Spec.Rewrite.normalize ~cache spec eq);
        ignore (Spec.Rewrite.normalize ~cache spec eq))
  in
  Alcotest.(check bool) "first normalize misses" true
    (List.length (counter_series events "rewrite/cache_miss") >= 1);
  Alcotest.(check bool) "second normalize hits" true
    (List.length (counter_series events "rewrite/cache_hit") >= 1)

(* --- the fuel-exhaustion span context --- *)

let diverged_message f =
  match f () with
  | exception Limits.Diverged msg -> msg
  | _ -> Alcotest.fail "expected Diverged"

let test_fuel_context_untraced () =
  let msg =
    diverged_message (fun () ->
        Algebra.Eval.eval ~fuel:(Limits.of_int 3) no_defs (chain_db 8) tc_ifp)
  in
  Alcotest.(check bool) "no span path when untraced" false
    (contains ~sub:"(in " msg)

let test_fuel_context_traced () =
  let mem, _ = Obs.Sink.memory () in
  let msg =
    Obs.with_sink mem (fun () ->
        diverged_message (fun () ->
            Algebra.Eval.eval ~fuel:(Limits.of_int 3) no_defs (chain_db 8) tc_ifp))
  in
  Alcotest.(check bool) "span path attached" true
    (contains ~sub:"(in eval" msg)

(* --- the JSONL event schema --- *)

let test_jsonl_schema () =
  let path = Filename.temp_file "recalg_obs" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let _ =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Datalog.Run.with_obs (Obs.Sink.jsonl oc) (fun () ->
            Datalog.Run.valid win_program (chain_moves 4)))
  in
  let ic = open_in path in
  let lines =
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  close_in ic;
  Alcotest.(check bool) "nonempty" true (List.length lines > 0);
  List.iter
    (fun line ->
      Alcotest.(check bool) "object" true
        (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}');
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Fmt.str "key %s in %s" key line)
            true
            (contains ~sub:(Fmt.str "\"%s\":" key) line))
        [ "at"; "ev"; "span"; "counter" ])
    lines;
  (* The Value.Stats fold-in from Run.with_obs is present. *)
  Alcotest.(check bool) "intern stats folded in" true
    (List.exists (fun l -> contains ~sub:"value/intern_hits" l) lines)

(* --- with_tee composes onto an installed sink --- *)

let test_tee_composition () =
  let outer, outer_events = Obs.Sink.memory () in
  let inner, inner_events = Obs.Sink.memory () in
  Obs.with_sink outer (fun () ->
      Obs.with_tee inner (fun () ->
          ignore (Algebra.Eval.eval no_defs (chain_db 3) tc_ifp)));
  Alcotest.(check bool) "outer sink saw the events" true
    (List.length (outer_events ()) > 0);
  Alcotest.(check bool) "teed sink saw them too" true
    (counter_series (inner_events ()) "eval/ifp_iter" <> [])

let suite =
  [
    Alcotest.test_case "disabled by default, no events" `Quick
      test_disabled_by_default;
    Alcotest.test_case "traced = untraced: IFP eval" `Quick
      test_traced_untraced_identical_ifp;
    Alcotest.test_case "traced = untraced: fused join" `Quick
      test_traced_untraced_identical_join;
    Alcotest.test_case "traced = untraced: valid semantics" `Quick
      test_traced_untraced_identical_valid;
    Alcotest.test_case "summary: tc chain iteration count" `Quick
      test_summary_tc_iterations;
    Alcotest.test_case "summary: valid round count = iterations" `Quick
      test_summary_valid_rounds;
    Alcotest.test_case "summary: grounder counters" `Quick
      test_summary_grounder_counters;
    Alcotest.test_case "summary: rewrite cache hit/miss" `Quick
      test_summary_rewrite_cache;
    Alcotest.test_case "fuel message clean when untraced" `Quick
      test_fuel_context_untraced;
    Alcotest.test_case "fuel message carries span path" `Quick
      test_fuel_context_traced;
    Alcotest.test_case "jsonl schema: at/ev/span/counter" `Quick
      test_jsonl_schema;
    Alcotest.test_case "with_tee reaches both sinks" `Quick test_tee_composition;
  ]
