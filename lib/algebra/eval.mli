(** Two-valued evaluation of IFP-algebra queries (Section 3.1).

    Handles the full operator set including [IFP] (by inflationary
    iteration) and non-recursive definitions (by inlining). Recursive
    definitions have no two-valued semantics in general — Section 3.2's
    [S = {a} - S] — and are rejected; they are the business of
    {!Rec_eval}. *)

open Recalg_kernel

exception Undefined_relation of string
exception Recursive_definition of string

val eval :
  ?fuel:Limits.fuel ->
  ?advice:Advice.t ->
  Defs.t ->
  Db.t ->
  Expr.t ->
  Value.t
(** Raises {!Recursive_definition} when the expression reaches a defined
    constant that (transitively) refers to itself, and
    [Limits.Diverged] when an [IFP] fails to converge within fuel.

    [advice] (default {!Advice.none}) is the evaluator configuration.
    Its [strategy] (default [Seminaive]) selects the [IFP] loop:
    semi-naive delta iteration where the fixpoint variable occurs
    delta-linearly (see {!Delta}), with per-subexpression fallback to
    full re-evaluation elsewhere; [Naive] is the reference oracle. Its
    [join] (default [Fused]) evaluates [Select (p, Product _)] nodes
    with an extractable equi-key as hash joins (see {!Join}); [Unfused]
    always materialises the product and filters. Its planner hooks
    rewrite every inlined expression before it is walked, and the
    per-node overrides replace [join]/[strategy] at individual
    [Select]/[Ifp] nodes. Every strategy, join mode and advice built by
    [Recalg.Plan] returns byte-identical values and spends identical
    fuel. *)

val eval_closed :
  ?fuel:Limits.fuel ->
  ?advice:Advice.t ->
  Db.t ->
  Expr.t ->
  Value.t
(** Evaluation with no definitions in scope. *)
