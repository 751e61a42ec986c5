(** Semi-naive (delta) evaluation support for the fixpoint engines.

    The naive [IFP] iteration [s' = s ∪ exp(s)] re-joins the whole
    accumulated set on every pass. When the fixpoint variable occurs
    delta-linearly ({!Positivity.delta_linear}), the new tuples of a pass
    can be derived from the {e delta} of the previous pass alone, using
    the distributivity of the algebra operators over set deltas:

    - [Δ(a ∪ b) = Δa ∪ Δb]
    - [Δ(a × b) = Δa × b ∪ a × Δb] (covers [Δa × Δb])
    - [Δ(σ_p a) = σ_p (Δa)], [Δ(map_f a) = map_f (Δa)]
    - [Δ(a - b) = Δa - b] when the variable does not occur in [b]

    Where the variable occurs non-linearly — under a difference's right
    argument, inside a nested [Ifp] body, or in a [Call] argument — the
    derivation falls back to full re-evaluation of that subexpression.
    The fallback keeps the derivation {e sound for arbitrary bodies} of
    the inflationary iteration: the derived set always contains every
    tuple new to this pass and is always contained in the current full
    value, so semi-naive and naive iterations visit byte-identical
    states and stop on the same round (fuel consumption matches too). *)

open Recalg_kernel

type strategy = Advice.strategy = Naive | Seminaive
(** Engine selector, set through {!Advice.t}'s [strategy] field;
    [Seminaive] is the default everywhere and falls back
    per-subexpression. [Naive] forces the historical full re-evaluation
    loops (the reference oracle). *)

val eligible : string list -> Expr.t -> bool
(** Delta derivation pays off: at least one tracked name occurs free in a
    delta-linear position. *)

val derive :
  builtins:Builtins.t ->
  ?advice:Advice.t ->
  eval:(Expr.t -> Value.t) ->
  ?eval_diff_right:(Expr.t -> Value.t) ->
  deltas:(string * Value.t) list ->
  Expr.t ->
  Value.t
(** [derive ~builtins ~eval ~deltas e] is the delta of [e] given the
    per-name deltas of the changed relations: a set containing every
    tuple of the current value of [e] that was not in its previous value,
    and contained in the current value. [eval] must evaluate a
    subexpression to its full {e current} value (same environment as the
    enclosing fixpoint pass). [eval_diff_right] (default [eval]) is used
    for right arguments of [Diff] — the three-valued engine passes the
    opposite bound there, mirroring [low = a.low - b.high].

    [advice] (default {!Advice.none}) supplies the join configuration:
    its [join] mode ([Fused] in {!Advice.none}) plans
    [Select (p, Product _)] nodes as hash joins ({!Join}) — the delta of
    such a node joins each factor's delta against the current value of
    the other factor, so delta rounds stay [O(|Δ| + |probe| + |out|)]
    instead of materialising products — and its per-node [join_mode] and
    [join_par] hooks, called with each [Select] node, override the mode
    or force/forbid the parallel join path for that node. Its [rewrite]
    is not applied here: callers pass already-advised bodies. *)

val touches : string list -> Expr.t -> bool
(** Some tracked name occurs free in the expression. *)

val is_empty : Value.t -> bool
