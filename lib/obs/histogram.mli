(** Log-linear (HDR-style) histograms over non-negative integers.

    Values below [2 ^ 4 = 16] get one exact bucket each; above that,
    every power-of-two magnitude splits into 16 linear sub-buckets. A
    bucket's width is therefore at most [1/16] of its lower bound, so
    {!quantile} carries a bounded relative error of [1/16] (and is exact
    below 16 and at the recorded extrema). Negative recordings clamp
    to [0].

    {!merge} adds bucket counts pointwise — associative and commutative,
    which is what lets the per-domain metrics shards be combined in any
    order on read. A histogram is single-writer mutable state; the
    metrics registry keeps one per domain and merges on read. *)

type t

val create : unit -> t
val record : t -> int -> unit

val count : t -> int
(** Number of recordings. *)

val total : t -> int
(** Sum of the recorded values (exact, not bucketed). *)

val min_value : t -> int
(** Smallest recording ([0] when empty). *)

val max_value : t -> int
(** Largest recording ([0] when empty). *)

val merge : t -> t -> t
(** A fresh histogram holding both inputs' recordings. *)

val merge_into : into:t -> t -> unit
(** Add [src]'s buckets into [into] in place. *)

val quantile : t -> float -> int
(** [quantile t q] (with [q] clamped to [0..1]) is the lower bound of
    the bucket holding the nearest-rank [q]-quantile, clamped to the
    recorded extrema; [0] when empty. Relative error is at most [1/16]
    of the true value. *)

val fold : (low:int -> high:int -> count:int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the non-empty buckets in ascending value order, with each
    bucket's inclusive value range — the exposition iterator. *)

val exact_quantile : float list -> float -> float
(** Exact nearest-rank quantile of a float sample ([0.] when empty) —
    the reference for the error-bound tests. *)
