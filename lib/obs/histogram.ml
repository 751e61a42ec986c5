(* Log-linear (HDR-style) histogram over non-negative integers.

   Values below [sub_count] get one exact bucket each; above that, each
   power-of-two magnitude splits into [sub_count] linear sub-buckets, so
   a bucket's width is at most [1/sub_count] of its lower bound and any
   quantile read from bucket bounds carries a relative error of at most
   [1/sub_count]. Merging adds bucket counts pointwise, which is
   associative and commutative — the property the per-domain metrics
   shards rely on. *)

let sub_bits = 4
let sub_count = 1 lsl sub_bits

(* Largest magnitude: Sys.int_size - 2 covers every positive int. *)
let max_magnitude = Sys.int_size - 2
let n_buckets = ((max_magnitude - sub_bits + 1) * sub_count) + sub_count

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { counts = Array.make n_buckets 0; n = 0; sum = 0; min_v = max_int; max_v = 0 }

let magnitude v =
  (* Index of the highest set bit: v >= sub_count here, so >= sub_bits. *)
  let rec go m v = if v <= 1 then m else go (m + 1) (v lsr 1) in
  go 0 v

let bucket_of v =
  if v < sub_count then v
  else begin
    let m = magnitude v in
    let block = m - sub_bits + 1 in
    let sub = (v lsr (m - sub_bits)) - sub_count in
    (block * sub_count) + sub
  end

(* The lower bound of a bucket: the smallest value it holds. Exact for
   the linear range; for log-linear buckets the width is
   [2 ^ (block - 1)], i.e. at most [low / sub_count]. *)
let bucket_low idx =
  if idx < sub_count then idx
  else begin
    let block = idx / sub_count and sub = idx mod sub_count in
    (sub_count + sub) lsl (block - 1)
  end

let bucket_high idx =
  if idx < sub_count then idx
  else bucket_low idx + (1 lsl ((idx / sub_count) - 1)) - 1

let record t v =
  let v = if v < 0 then 0 else v in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let total t = t.sum
let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = t.max_v

let merge_into ~into src =
  Array.iteri
    (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
    src.counts;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.n > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

(* The value at or below which at least [ceil (q * n)] recordings fall,
   reported as the lower bound of its bucket (clamped to the recorded
   extrema, so exact minima and maxima stay exact). *)
let quantile t q =
  if t.n = 0 then 0
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let rec go idx seen =
      if idx >= n_buckets then t.max_v
      else begin
        let seen = seen + t.counts.(idx) in
        if seen >= rank then min t.max_v (max t.min_v (bucket_low idx))
        else go (idx + 1) seen
      end
    in
    go 0 0
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri
    (fun i c ->
      if c > 0 then acc := f ~low:(bucket_low i) ~high:(bucket_high i) ~count:c !acc)
    t.counts;
  !acc

(* Exact quantile of a float sample, nearest-rank convention — the
   reference the error-bound tests compare against. *)
let exact_quantile values q =
  match values with
  | [] -> 0.
  | _ ->
    let arr = Array.of_list values in
    Array.sort Float.compare arr;
    let n = Array.length arr in
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    arr.(rank - 1)
