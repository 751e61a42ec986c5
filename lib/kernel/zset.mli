(** Z-sets: relations weighted by integers — the change representation of
    incremental view maintenance.

    A Z-set maps values to {e non-zero} integer weights (the invariant
    every exported constructor maintains). A positive weight counts
    multiplicity-like support, a negative weight records a retraction; the
    plain sets of {!Value} embed as Z-sets with all weights [+1]
    ({!of_set}) and project back by keeping the positively weighted
    elements ({!to_set}).

    Z-sets form a commutative group under {!add}/{!negate} with {!empty}
    as identity — the structure that lets every linear relational operator
    process a delta exactly as it processes a full relation, and bilinear
    operators (product, join) follow the expansion
    [Δ(a ⋈ b) = Δa ⋈ b + a ⋈ Δb + Δa ⋈ Δb]. See DESIGN.md §8.

    Keys compare with {!Value.compare}; values are hash-consed, so the
    dominating comparisons short-circuit on physical equality and the maps
    are cheap even over deep constructor terms. *)

type t

val empty : t
val is_empty : t -> bool

val singleton : ?weight:int -> Value.t -> t
(** Default weight [1]; [weight = 0] yields {!empty}. *)

val weight : t -> Value.t -> int
(** [0] for absent elements. *)

val mem : t -> Value.t -> bool
(** The element carries a non-zero weight (of either sign). *)

val support : t -> Value.t list
(** Elements with non-zero weight, sorted by {!Value.compare}. *)

val support_size : t -> int

val total_weight : t -> int
(** Sum of all weights — the net cardinality change a delta describes. *)

(** {1 Group structure} *)

val add : t -> t -> t
(** Pointwise weight addition; elements whose weights cancel vanish. *)

val negate : t -> t
val sub : t -> t -> t
(** [sub a b = add a (negate b)]. *)

val scale : int -> t -> t
(** Pointwise multiplication; [scale 0] is {!empty}. *)

(** {1 Set boundary} *)

val of_set : Value.t -> t
(** Every element of the set value at weight [+1]. Raises
    [Invalid_argument] if the argument is not a [Set]. *)

val to_set : t -> Value.t
(** The canonical set of {e positively} weighted elements. *)

val distinct : t -> t
(** Positively weighted elements at weight [1]; negative and zero weights
    are dropped — the Z-set image of {!to_set}. *)

val delta_of_sets : old_value:Value.t -> Value.t -> t
(** [delta_of_sets ~old_value v] is the exact set-level change
    [of_set v - of_set old_value]: weight [+1] on elements appearing,
    [-1] on elements vanishing. *)

(** {1 Building and consuming} *)

val of_list : (Value.t * int) list -> t
(** Sums the weights of repeated elements and drops the cancelled ones —
    the consolidation of an unnormalised weighted stream. *)

val consolidate : (Value.t * int) Seq.t -> t
(** {!of_list} over a sequence. *)

val to_list : t -> (Value.t * int) list
(** Sorted by {!Value.compare}; weights all non-zero. *)

val fold : (Value.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Value.t -> int -> unit) -> t -> unit

val filter : (Value.t -> bool) -> t -> t

val map : (Value.t -> Value.t option) -> t -> t
(** Linear lift of the algebra's [MAP] on partial element functions:
    images collect the summed weights of their preimages; [None] drops
    the element. Collisions make the result a genuine multiset — recover
    set semantics with {!distinct}. *)

val product : (Value.t -> Value.t -> Value.t) -> t -> t -> t
(** [product pair a b] pairs every element of [a] with every element of
    [b] under [pair], weights multiplying — the bilinear lift of the
    cartesian product. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
