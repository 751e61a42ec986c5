(** The cost-based planner: n-ary join ordering, selection pushdown,
    semijoin reduction, and per-node strategy advice.

    A planner value holds {!Stats} plus a {!mode} and produces an
    {!Recalg_algebra.Advice.t} the evaluators consume. Its rewrite walks
    an expression bottom-up; each maximal [Select]/[Product] region is
    flattened into join {e leaves} and lifted conjuncts, every conjunct
    is classified (per-leaf pushdown, equi-join edge between two leaves,
    or general residual), a join order is searched — greedy left-deep in
    [Greedy] mode, Selinger-style dynamic programming over leaf subsets
    (bushy, both orientations) in [Cost] mode for up to 8 leaves — and
    the region is rebuilt with each conjunct attached at its lowest
    covering node and a final reshape [Map] restoring the original pair
    structure. Under an enclosing projection that keeps a single leaf,
    the reshape is dropped and discarded leaves touched only by
    equi-conjuncts are reduced to their join keys (a semijoin — exact,
    because sets dedup) when sampled distinct counts predict a shrink.

    {b Exactness.} Every rewrite is result-exact: conjuncts are composed
    with the projection path to wherever they attach ([Efun] composition
    is strict, so definedness is preserved), each attaches exactly once
    (enforced by a defensive count — on mismatch the planner declines
    and the original expression runs), and reshapes are bijections on
    the canonical sets. Plan choice may change {e fuel} (iteration
    accounting) in principle; the oracle's plan knobs ([test_oracle.ml])
    pin result and fuel equality on random instances.

    Per-node strategy advice rides along: joins with a tiny estimated
    product are advised [Unfused], joins whose estimated input reaches
    [!Recalg_algebra.Join.par_threshold] are advised parallel, and [Ifp]
    nodes over tiny estimated bases are advised [Naive]. Advice tables
    are keyed on the rewritten nodes themselves, which the evaluators
    hand back verbatim. *)

open Recalg_algebra

type mode =
  | Off  (** no rewrite, {!advice} is {!Advice.none} *)
  | Greedy  (** greedy left-deep join order — the baseline E14 defeats *)
  | Cost  (** DP join order (<= 8 leaves, greedy above) + cost model *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type join_report = {
  leaves : string list;  (** leaf labels, original left-to-right order *)
  original : string;  (** rendered syntactic join tree *)
  chosen : string;  (** rendered planned join tree *)
  mode_used : mode;
  est_cost_original : float;
  est_cost_chosen : float;
  est_out : float;  (** estimated final output cardinality *)
  semijoins : int;
  pushdowns : int;
  par_joins : int;  (** nodes advised to run the parallel join path *)
  reordered : bool;
}

type t

val create :
  ?stats:Stats.t -> ?refresh:bool -> ?drift_threshold:float -> mode -> t
(** [refresh] (default [false]) arms the mid-fixpoint re-planning hook
    ({!refresh}); [drift_threshold] (default [4.0]) is the observed/
    estimated cardinality ratio — in either direction — beyond which a
    round-boundary reading triggers a re-plan. *)

val rewrite : t -> Expr.t -> Expr.t
(** The planning rewrite, exposed for direct use and testing. [Off]
    returns the expression unchanged. Also populates the per-node advice
    tables and the {!reports} log as a side effect. *)

val refresh :
  t -> round:int -> bound:(string * (unit -> int)) list -> Expr.t -> Expr.t option
(** The mid-fixpoint re-planning hook behind [Advice.refresh], exposed
    for testing. With refresh armed: forces the cardinality thunks,
    harvests live [db/card/*] metrics gauges into the stats (when
    metrics are collecting), and — when an observed bound-relation
    cardinality drifts beyond the threshold from the estimate the
    current plan used — installs the observed values as estimation
    overrides and re-plans the body. Returns [Some body'] only when the
    re-plan structurally changed the expression; counts [plan/drift]
    and [plan/replan]. Refresh off (the default) returns [None] without
    forcing a thunk. *)

val advice : t -> Advice.t
(** The advice record to pass to [Eval.eval], [Rec_eval.solve], or the
    translate entry points. {!Advice.none} when the mode is [Off], so
    evaluators skip the hooks entirely. *)

val reports : t -> join_report list
(** One report per planned join region, in planning order — the EXPLAIN
    payload. *)

val pp_report : Format.formatter -> join_report -> unit
val pp_reports : Format.formatter -> join_report list -> unit
