(** Extensional databases: named finite relations over values.

    A database is "a collection of named sets (every set is a database
    'relation')" (Section 3); tuples are lists of values, so both flat
    relations and complex-object relations (tuples containing sets or
    constructor terms) are covered. *)

open Recalg_kernel

module Tuples : Set.S with type elt = Value.t list
(** The tuple sets every relation is stored as. The engines' relation
    store ({!Relstore}) keeps its sections in the same sets, so base
    relations enter it and results leave it by pointer. *)

type t

val empty : t
val add : string -> Value.t list -> t -> t
val add_all : string -> Value.t list list -> t -> t
val of_list : (string * Value.t list list) list -> t
val mem : t -> string -> Value.t list -> bool
val tuples : t -> string -> Value.t list list
(** Sorted, duplicate-free; empty list for an unknown relation. *)

val relation : t -> string -> Tuples.t
(** The relation's tuple set; empty for an unknown relation. *)

val with_relation : string -> Tuples.t -> t -> t
(** Replace a relation's tuples; an empty set removes the relation. *)

val preds : t -> string list
val cardinal : t -> string -> int

val remove : string -> Value.t list -> t -> t
(** Delete one tuple; a relation losing its last tuple disappears
    entirely, so the result equals a database never holding it. *)

val union : t -> t -> t

val diff : t -> t -> t
(** Per-relation tuple difference; emptied relations disappear. *)

val equal : t -> t -> bool
val fold : (string -> Value.t list -> 'a -> 'a) -> t -> 'a -> 'a
val pp : Format.formatter -> t -> unit

(** Update batches over extensional databases: signed fact collections,
    the Datalog face of the kernel's Z-sets. Opposite-signed entries for
    one fact cancel within a batch; inserting a present fact or deleting
    an absent one is a no-op. *)
module Update : sig
  type edb := t
  type t

  val empty : t
  val is_empty : t -> bool
  val insert : string -> Value.t list -> t -> t
  val delete : string -> Value.t list -> t -> t

  val of_facts : (bool * string * Value.t list) list -> t
  (** [(true, pred, tup)] inserts, [(false, pred, tup)] deletes. *)

  val to_facts : t -> (bool * string * Value.t list) list

  val effective : edb -> t -> edb * edb
  (** [(additions, deletions)] the batch actually causes against the
      database — the exact membership changes, no-ops dropped. *)

  val apply : t -> edb -> edb

  val pp : Format.formatter -> t -> unit
end
