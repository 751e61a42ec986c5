(* Multicore scale-out: the pool itself, concurrent interning, and
   failure containment. The domains:N ≡ domains:1 determinism contract —
   every engine returns byte-identical results and spends identical fuel
   at every pool size (DESIGN.md §9) — is the [domains 4] knob of the
   oracle (test_oracle.ml). The join parallel threshold is forced low
   here so small inputs exercise the partitioned join path. *)

open Recalg
module Eval = Algebra.Eval
module Rec_eval = Algebra.Rec_eval
module Expr = Algebra.Expr
module Defs = Algebra.Defs
module Db = Algebra.Db
module Join = Algebra.Join
module Edb = Datalog.Edb
module Seminaive = Datalog.Seminaive
module Run = Datalog.Run
module Interp = Datalog.Interp
module Grounder = Datalog.Grounder
module Valid = Datalog.Valid
module S2i = Translate.Stratified_to_ifp

let vs = Value.sym
let with_domains = Tgen.with_domains

(* --- Pool unit tests --- *)

let test_pool_map_order () =
  with_domains 4 @@ fun () ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "map preserves order" (List.map (fun x -> x * x) xs)
    (Pool.map (fun x -> x * x) xs)

let test_pool_nested () =
  with_domains 4 @@ fun () ->
  let rows =
    Pool.map
      (fun i -> Pool.map (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (list int)))
    "nested runs compose"
    [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
    rows

let test_pool_first_error_wins () =
  with_domains 4 @@ fun () ->
  let boom i () = if i >= 2 then failwith (string_of_int i) else i in
  (match Pool.run (List.init 6 boom) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    Alcotest.(check string) "lowest-index failure is re-raised" "2" msg);
  (* The pool survives a failed batch. *)
  Alcotest.(check (list int)) "pool alive after failure" [ 1; 2; 3 ]
    (Pool.map Fun.id [ 1; 2; 3 ])

let test_pool_sequential_at_one () =
  Pool.set_domains 1;
  let side = ref [] in
  let thunks = List.init 5 (fun i () -> side := i :: !side) in
  ignore (Pool.run thunks);
  Alcotest.(check (list int))
    "size-1 pool runs in order on the caller" [ 4; 3; 2; 1; 0 ] !side;
  Alcotest.(check bool) "parallel() is false at size 1" false (Pool.parallel ())

(* --- Concurrent interning stress --- *)

let test_concurrent_interning () =
  let m = 400 and tasks = 8 in
  (* Pre-intern the children on the main domain so the workers' only
     fresh nodes are the wrappers themselves — then the live-node delta
     counts duplicates exactly. *)
  let chain =
    List.fold_left (fun acc _ -> Value.cstr "succ" [ acc ]) (Value.int 0)
      (List.init 64 Fun.id)
  in
  List.iter (fun i -> ignore (Value.int i)) (List.init m Fun.id);
  let build () =
    List.init m (fun i -> Value.cstr "stress_intern" [ Value.int i; chain ])
  in
  ignore (build ());
  (* One warm-up build above also pre-interns the wrappers: from here on
     every construction, on any domain, must be answered from the table. *)
  let live0 = (Value.Stats.snapshot ()).Value.Stats.live in
  Value.Stats.reset_counters ();
  with_domains 4 @@ fun () ->
  let results = Pool.run (List.init tasks (fun _ -> build)) in
  let reference = build () in
  let s = Value.Stats.snapshot () in
  Alcotest.(check int)
    "zero fresh nodes: every wrapper was already interned" live0
    s.Value.Stats.live;
  Alcotest.(check int) "zero misses under concurrent re-interning" 0
    s.Value.Stats.misses;
  List.iteri
    (fun t vs ->
      List.iter2
        (fun a b ->
          if not (a == b) then
            Alcotest.failf "task %d interned a physically distinct value" t;
          if Value.id a <> Value.id b then
            Alcotest.failf "task %d saw a different id" t)
        vs reference)
    results;
  let ids = List.sort_uniq compare (List.map Value.id reference) in
  Alcotest.(check int) "ids are unique across distinct values" m
    (List.length ids)

let test_fresh_concurrent_interning () =
  (* The racing case: many domains interning the same *fresh* values.
     Exactly one domain wins each node; everyone ends up with the same
     pointer, and the table grows by exactly the distinct-node count. *)
  let m = 300 and tasks = 8 in
  List.iter (fun i -> ignore (Value.int i)) (List.init m Fun.id);
  let live0 = (Value.Stats.snapshot ()).Value.Stats.live in
  Value.Stats.reset_counters ();
  let build () =
    List.init m (fun i -> Value.cstr "stress_fresh" [ Value.int i ])
  in
  with_domains 4 @@ fun () ->
  let results = Pool.run (List.init tasks (fun _ -> build)) in
  let s = Value.Stats.snapshot () in
  Alcotest.(check int) "live nodes grew by exactly the distinct count"
    (live0 + m) s.Value.Stats.live;
  Alcotest.(check int) "each fresh node was interned exactly once" m
    s.Value.Stats.misses;
  let reference = List.hd results in
  List.iter
    (fun vs -> List.iter2 (fun a b -> assert (a == b)) vs reference)
    results;
  Alcotest.(check int) "ids unique" m
    (List.length (List.sort_uniq compare (List.map Value.id reference)))

(* --- Failure containment (DESIGN.md Â§11): a raising or cancelled
   task must leave the pool reusable, the intern shards unlocked, and
   a shared fuel budget exactly accounted. --- *)

let test_pool_task_fault_recovery () =
  with_domains 4 @@ fun () ->
  Faultinj.arm ~site:"pool/task" ~after:2;
  (match
     Pool.run
       (List.init 8 (fun i () -> Value.cstr "chaos_par" [ Value.int i ]))
   with
  | _ -> Alcotest.fail "expected Injected"
  | exception Faultinj.Injected { site; _ } ->
    Alcotest.(check string) "the armed site fired" "pool/task" site);
  Faultinj.disarm ();
  (* The pool survives and is reusableâ¦ *)
  Alcotest.(check (list int)) "pool alive after injected task" [ 2; 3; 4 ]
    (Pool.map (fun x -> x + 1) [ 1; 2; 3 ]);
  (* â¦and the intern shards were not left locked: fresh interning on
     every domain still converges to shared nodes. *)
  let build () =
    List.init 50 (fun i -> Value.cstr "chaos_par_fresh" [ Value.int i ])
  in
  let results = Pool.run (List.init 8 (fun _ -> build)) in
  let reference = build () in
  List.iter
    (fun vs -> List.iter2 (fun a b -> assert (a == b)) vs reference)
    results

let test_pool_intern_fault_recovery () =
  (* The fault fires *inside* [Value.make] on a worker domain â before
     the shard lock is taken, so nothing can be left held. *)
  with_domains 4 @@ fun () ->
  Faultinj.arm ~site:"value/intern" ~after:40;
  (match
     Pool.run
       (List.init 8 (fun t () ->
            List.init 50 (fun i ->
                Value.cstr "chaos_par_intern" [ Value.int ((100 * t) + i) ])))
   with
  | _ -> () (* armed count may exceed the batch's builds on fast paths *)
  | exception Faultinj.Injected _ -> ());
  Faultinj.disarm ();
  let v = Value.cstr "chaos_par_intern" [ Value.int 0 ] in
  Alcotest.(check bool) "interner functional after fault" true
    (v == Value.cstr "chaos_par_intern" [ Value.int 0 ])

let test_pool_fuel_exactly_restored () =
  (* Eight tasks race a 100-step budget: every failed spend restores
     its decrement before raising, so after the batch fails the count
     is exactly zero â not negative, not short. *)
  with_domains 4 @@ fun () ->
  let fuel = Limits.of_int 100 in
  let task () =
    for _ = 1 to 1_000 do
      Limits.spend fuel ~what:"parallel chaos"
    done
  in
  (match Pool.run (List.init 8 (fun _ -> task)) with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Limits.Diverged _ -> ());
  Alcotest.(check (option int)) "fuel restored to exactly zero" (Some 0)
    (Limits.remaining fuel);
  Alcotest.(check (list int)) "pool alive after exhaustion" [ 1; 2; 3 ]
    (Pool.map Fun.id [ 1; 2; 3 ])

let test_pool_cancellation () =
  with_domains 4 @@ fun () ->
  let tok = Limits.cancel_token () in
  let fuel = Limits.governed ~cancel:tok () in
  Limits.cancel tok;
  Limits.with_active fuel (fun () ->
      match Pool.run (List.init 4 (fun i () -> i)) with
      | _ -> Alcotest.fail "expected cancellation"
      | exception Limits.Resource_exhausted { kind = Limits.Cancelled; _ } ->
        ());
  (* Outside the ambient budget the pool serves again. *)
  Alcotest.(check (list int)) "pool alive after cancellation" [ 0; 1; 2; 3 ]
    (Pool.map Fun.id [ 0; 1; 2; 3 ])

let suite =
  [
    Alcotest.test_case "pool map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "pool nested runs" `Quick test_pool_nested;
    Alcotest.test_case "pool first error wins" `Quick test_pool_first_error_wins;
    Alcotest.test_case "pool size 1 is sequential" `Quick
      test_pool_sequential_at_one;
    Alcotest.test_case "concurrent re-interning shares every node" `Quick
      test_concurrent_interning;
    Alcotest.test_case "concurrent fresh interning is duplicate-free" `Quick
      test_fresh_concurrent_interning;
    Alcotest.test_case "injected task leaves the pool reusable" `Quick
      test_pool_task_fault_recovery;
    Alcotest.test_case "injected intern leaves shards unlocked" `Quick
      test_pool_intern_fault_recovery;
    Alcotest.test_case "parallel exhaustion restores fuel exactly" `Quick
      test_pool_fuel_exactly_restored;
    Alcotest.test_case "cancellation drains the pool cleanly" `Quick
      test_pool_cancellation;
  ]
