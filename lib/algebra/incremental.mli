(** Incremental view maintenance for the algebra evaluators.

    Holds a query's full operator tree {e materialized} — every node keeps
    its current value resident — and repairs it under update batches by
    pushing exact set-level {!Recalg_kernel.Zset} deltas bottom-up instead
    of recomputing from scratch. The per-operator delta rules are the
    Z-set lifts (see {!Recalg_kernel.Zset} and DESIGN.md §8): linear
    operators filter or map the delta, bilinear ones (product, equi-join)
    use the expansion [Δ(a ⋈ b) = Δa ⋈ b' + a' ⋈ Δb − Δa ⋈ Δb], and
    difference/union derive the old membership of each candidate from the
    new value plus the delta.

    [IFP] nodes are macro-nodes with three maintenance regimes, chosen per
    batch:

    - {b extension} (insert-only inputs, positive body): continue the
      inflationary iteration from the old fixpoint — a pre-fixpoint of
      the enlarged round map — by semi-naive delta rounds;
    - {b delete & rederive} (deletions, positive body): overdelete the
      closure of tuples whose derivations touch a deleted fact (computed
      against the pre-update state), then rederive survivors with one
      full round and close;
    - {b recompute} (non-positive body, or a changed input occurring
      negatively): conservative from-scratch evaluation via {!Eval},
      counted by the [incr/recompute] observability counter.

    The contract, tested by the [incremental] knob of [test_oracle.ml]:
    after any sequence of updates, {!value} is {e byte-identical} to
    evaluating the query from scratch on the final database. *)

open Recalg_kernel

exception Undefined_relation of string
exception Recursive_definition of string

(** Update batches: per-relation Z-sets of insertions (weight [+1]) and
    deletions (weight [-1]). A batch is declarative — inserting an
    already-present tuple or deleting an absent one is a no-op, and
    opposite-signed entries for the same tuple cancel. *)
module Update : sig
  type t

  val empty : t
  val is_empty : t -> bool
  val insert : string -> Value.t -> t -> t
  val delete : string -> Value.t -> t -> t
  val of_zsets : (string * Zset.t) list -> t
  val to_zsets : t -> (string * Zset.t) list
  val rels : t -> string list

  val apply : t -> Db.t -> Db.t
  (** The post-update database: per relation,
      [to_set (of_set old + batch)]. Relations absent from the database
      start empty. *)

  val effective : Db.t -> t -> (string * Zset.t) list
  (** The exact set-level change [apply] would make to each relation —
      every weight [±1], no-op entries dropped. *)

  val pp : Format.formatter -> t -> unit
end

type t
(** A materialized query: expression tree, per-node values, and the
    database they were computed against. *)

val init : ?fuel:Limits.fuel -> Defs.t -> Db.t -> Expr.t -> t
(** Build the tree (definitions fully inlined — parameterised by
    {!Defs.inline}, nullary constants bodily, as in {!Eval}) and evaluate
    it bottom-up. Raises {!Undefined_relation} on a free name missing from
    the database and {!Recursive_definition} on a recursive constant —
    recursive programs are {!Rec}'s business. *)

val value : t -> Value.t
(** The root's current value. *)

val db : t -> Db.t
(** The current (post-update) database. *)

val update : t -> Update.t -> Value.t
(** Apply a batch: advance the database, push deltas through the tree,
    return the repaired root value. Fuel is spent per fixpoint round, as
    in the from-scratch evaluators. *)

(** Resident solutions of recursive [algebra=] programs ({!Rec_eval}).

    Insert-only batches into a {e positive} program (all constants
    syntactically monotone, all IFPs positive, and no updated input
    occurring negatively) extend the old least solution by semi-naive
    rounds over the equation system; anything else falls back to a full
    {!Rec_eval.solve} (counted by [incr/recompute]). *)
module Rec : sig
  type t

  val init : ?fuel:Limits.fuel -> Defs.t -> Db.t -> t
  val db : t -> Db.t

  val constant : t -> string -> Rec_eval.vset
  (** Raises {!Undefined_relation} for an unknown name. *)

  val constant_names : t -> string list
  val update : t -> Update.t -> unit
end
