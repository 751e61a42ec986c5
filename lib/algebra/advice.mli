(** The evaluator configuration: defaults plus planner advice.

    This record is the one configuration value the algebra evaluators
    ({!Eval}, {!Rec_eval}, {!Delta}) take. Its two plain fields are the
    evaluator-wide defaults — the [IFP] loop strategy and the join
    mode — and the rest are planner hooks.

    The cost-based planner lives in [recalg.plan], {e above} this
    library, so the evaluators cannot call it directly. Instead they
    accept this record of hooks: a whole-expression rewrite (join
    reordering, semijoin reduction, predicate pushdown) applied wherever
    an evaluator inlines an expression, plus per-node overrides queried
    as evaluation reaches the node. Every hook is advisory — [None]
    means "keep the evaluator's default" — and every rewrite installed
    here must be {e result-exact}: the advised evaluation returns
    byte-identical sets (fuel is pinned by tests but not promised by
    this interface; see DESIGN.md §10).

    {!none} is the identity advice with the default strategy and join
    mode; evaluators default to it, and with it the advised code paths
    are byte-for-byte the unadvised ones. The reference oracles stay
    reachable as [{ Advice.none with strategy = Naive }] or
    [{ (Planner.advice p) with join = Unfused }]; every combination
    computes byte-identical results and spends identical fuel. *)

type strategy = Naive | Seminaive
(** [IFP] loop selector, re-exported as {!Delta.strategy}: [Seminaive]
    iterates on deltas where the fixpoint variable occurs delta-linearly
    and falls back per subexpression; [Naive] forces full
    re-evaluation every round (the reference oracle). *)

type t = {
  strategy : strategy;
      (** Default [IFP] loop strategy ([Seminaive] in {!none}), used
          wherever {!ifp_strategy} has no override. *)
  join : Join.mode;
      (** Default join mode ([Fused] in {!none}): [Fused] evaluates
          [Select (p, Product _)] nodes with an extractable equi-key as
          hash joins ({!Join}), [Unfused] materialises the product and
          filters. Used wherever {!join_mode} has no override. *)
  rewrite : Expr.t -> Expr.t;
      (** Applied to every expression an evaluator is about to walk
          (after definition inlining, so planner decisions key on the
          exact node values evaluation will encounter). Must preserve
          the result set of every evaluation, including under
          three-valued bounds and delta derivation. *)
  join_mode : Expr.t -> Join.mode option;
      (** Per-node fused/unfused override, called with the
          [Select (p, Product _)] node itself. *)
  join_par : Expr.t -> bool option;
      (** Per-node parallel-join override for the same nodes:
          [Some true] partitions whenever the pool is parallel (ignoring
          [Join.par_threshold]), [Some false] forces the sequential
          path, [None] keeps the threshold heuristic. *)
  ifp_strategy : string -> Expr.t -> strategy option;
      (** Per-[Ifp (x, body)] strategy override, called with [x] and
          [body]. *)
  refresh : round:int -> bound:(string * (unit -> int)) list -> Expr.t -> Expr.t option;
      (** Mid-fixpoint re-planning hook, called by the fixpoint engines
          at round boundaries with the observed cardinalities of the
          bound relations (lazy, so a planner with live refresh off
          forces nothing). [Some body'] asks the engine to continue the
          loop with the re-planned body — which must be result-exact,
          like {!rewrite} — while [None] keeps the current one. Engines
          re-validate their own preconditions (e.g. semi-naive delta
          eligibility) before adopting a new body, and fuel accounting
          is per round, so adopting advice never changes results or
          fuel. *)
}

val none : t
(** The identity advice: [Seminaive], [Fused], identity rewrite, every
    override [None]. *)

val is_none : t -> bool
(** Whether every hook is physically {!none}'s (the two defaults may
    differ), so hot paths can skip hook calls. *)
