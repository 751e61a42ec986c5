(** Incremental maintenance of materialized Datalog results.

    Holds the full stratified materialization (EDB plus every derived
    relation) resident and repairs it under {!Edb.Update} batches:

    - {b insert-only} batches into negation-free programs continue the
      semi-naive fixpoint from the old materialization
      ({!Seminaive.resume}) — the old result is below the new least
      fixpoint, so the extension converges to exactly the from-scratch
      answer;
    - batches with {b deletions} into negation-free programs run DRed
      (delete-and-rederive): delta-restricted rounds against the
      pre-update state overdelete every fact with a derivation step
      through a deleted fact ({!Seminaive.delta_heads}), then a resumed
      run rederives survivors and applies insertions;
    - programs with {b negation} anywhere recompute via
      {!Seminaive.stratified} — counted by the [incr/recompute]
      observability counter, alongside [incr/extend], [incr/dred],
      [incr/insertions] and [incr/retractions].

    The contract, tested by the [incremental] knob of [test_oracle.ml]:
    after any update sequence, {!result} equals from-scratch stratified
    evaluation of the final database, byte for byte. *)

open Recalg_kernel

type t

val init : ?fuel:Limits.fuel -> Program.t -> Edb.t -> (t, string) result
(** Materialize the stratified result; [Error] when the program is
    unsafe or not stratified (same conditions as
    {!Seminaive.stratified}). *)

val edb : t -> Edb.t
(** The current (post-update) extensional database. *)

val result : t -> Edb.t
(** The current materialization: EDB and all derived relations. *)

val holds : t -> string -> Value.t list -> bool

val update : t -> Edb.Update.t -> Edb.t
(** Apply a batch and return the repaired materialization. *)
