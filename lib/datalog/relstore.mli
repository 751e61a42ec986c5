(** The relation store and body matcher shared by every Datalog engine.

    Bottom-up evaluation ({!Seminaive}) and grounding over the positive
    envelope ({!Grounder}, Sec. 2.2) evaluate a rule body the same way:
    match its positive atoms against the facts derived so far, round by
    round, restricting one positive literal to the facts new in the last
    round (the semi-naive split). This module is that one operation. *)

open Recalg_kernel

exception Unsafe of string
(** Raised when a rule body admits no evaluable literal ordering. *)

type order = [ `Syntactic | `Stats ]
(** Body-literal ordering policy. [`Syntactic] takes the first evaluable
    literal at each step; [`Stats] ranks the evaluable literals by
    {!Cardest} envelope estimates, scanning the smallest relation first.
    Every evaluable ordering matches the same substitutions, so the
    choice moves enumeration cost only, never results or fuel. *)

val order_rules :
  ?order:order -> ?live:(string -> int option) -> Program.t -> base:Edb.t ->
  Rule.t list -> (Rule.t * Literal.t list) list
(** Each rule with its body in evaluation order (default [`Syntactic]);
    [live] overrides [`Stats]' static estimates with observed
    cardinalities ({!Cardest.prefer_with}). Raises {!Unsafe}. *)

(** {1 The store} *)

type t
(** Per predicate, three pairwise disjoint tuple sets: [full] (facts of
    earlier rounds), [delta] (facts new in the current round) and [next]
    (facts discovered during it), with per-column hash indexes over
    [full] and [delta]. An unknown predicate is empty. *)

type section = Full | Delta

val create : unit -> t

val clear : t -> unit
(** Empty every predicate. *)

val load : t -> string -> full:Edb.Tuples.t -> delta:Edb.Tuples.t -> unit
(** Set a predicate's [full] and [delta] (disjoint; they enter by
    pointer), empty its [next] and drop its indexes. *)

val section : t -> string -> section -> Edb.Tuples.t

val mem : t -> string -> Value.t list -> bool
(** Membership in any section. *)

val discover : t -> string -> Value.t list -> unit
(** Add a tuple to [next] unless some section already holds it. *)

val promote : t -> unit
(** End a round: [full] absorbs [delta], [delta] becomes [next]. Indexes
    over [full] are extended in place; those over [delta] are dropped. *)

val size : t -> string -> int
(** [|full| + |delta|], in time linear in [|delta|] only. *)

val delta_nonempty : t -> bool

val fold :
  (string -> full:Edb.Tuples.t -> delta:Edb.Tuples.t -> next:Edb.Tuples.t ->
   'a -> 'a) ->
  t -> 'a -> 'a

val probe : t -> string -> section -> int -> Value.t -> Edb.Tuples.t
(** The tuples of a section whose argument at the given column is the
    key, from the section's index on that column. The index is built on
    the first probe, unless the section is empty. *)

(** {1 The body matcher} *)

type body
(** An ordered body compiled for {!solve}: each positive literal probes
    on a column fixed here, the first argument whose variables the
    earlier literals bind; it scans when there is none. *)

val compile : Builtins.t -> Literal.t list -> body
(** Compile a body already in evaluation order ({!order_rules}). *)

type probes = { mutable hits : int; mutable misses : int; mutable scans : int }
(** Index probes that found a bucket or none, and section scans; bumped
    only while {!Recalg_obs.Obs.enabled}. *)

val probes : unit -> probes

val solve :
  t -> probes -> body -> delta:int option -> (Subst.t -> unit) -> unit
(** Call the continuation on every substitution matching the body. With
    [~delta:(Some d)] the positive literal at body position [d] reads
    [delta], earlier ones read [full] and later ones [full ∪ delta]; with
    [None] all read [full ∪ delta]. A negative literal holds when its
    ground atom is in neither [full] nor [delta].

    [solve] only reads the store, except that a probe may build a missing
    index: run {!prepare} first when several domains solve at once. *)

val prepare : t -> body -> delta:int option -> unit
(** Build every index that [solve] with the same arguments can probe. *)

val delta_tasks : t -> ('a * body) list -> ('a * body * int option) list
(** The delta-restricted variants of a round, in rule then body order:
    one per positive literal whose predicate's [delta] is non-empty (a
    variant over an empty delta matches nothing). *)
