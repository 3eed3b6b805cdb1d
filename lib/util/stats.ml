(* Streaming summary statistics over a bounded log-bucket histogram.

   The seed kept every observation in a list and re-sorted it on every
   percentile call: O(n) memory forever and O(n log n) per query — a
   pathology once the runtime records a latency per fetch.  The
   replacement is an HDR-style histogram: each octave [2^e, 2^(e+1))
   is split into [subs] equal-width sub-buckets, so memory is a fixed
   ~2 K counters and any percentile is one O(buckets) scan with
   relative error bounded by the sub-bucket width (1/subs of the
   value, ~3% at subs = 32).  Mean/variance stay exact via Welford;
   min/max are exact, and percentile results are clamped to them. *)

let sub_bits = 5
let subs = 1 lsl sub_bits (* sub-buckets per octave: relative width 1/32 *)
let octaves = 60 (* covers magnitudes up to 2^60 — beyond any cycle count *)
let buckets = 1 + (octaves * subs) (* bucket 0: everything below 1.0 *)

(* The float accumulators sit in a record of floats only, which OCaml
   stores flat: [add] writes them in place, where each float field of
   a mixed record would point at a freshly boxed float. *)
type acc = {
  mutable mean_acc : float;
  mutable m2 : float;
  mutable total : float;
  mutable lo : float;
  mutable hi : float;
}

type t = {
  mutable n : int;
  f : acc;
  hist : int array;
}

let create () =
  { n = 0;
    f = { mean_acc = 0.0; m2 = 0.0; total = 0.0; lo = infinity;
          hi = neg_infinity };
    hist = Array.make buckets 0 }

(* [Stdlib.min] is polymorphic: on ints it would call the generic
   compare. *)
let imin (a : int) b = if a <= b then a else b

(* Index of the sub-bucket holding [x].  Values below 1.0 (including
   negatives) share bucket 0: the histogram's precision contract is
   for magnitudes >= 1, which cycle counts always are.  Inlined into
   [add], so [x] is never boxed to cross a call. *)
let[@inline] bucket_of x =
  if x < 1.0 || Float.is_nan x then 0
  else begin
    let e = imin (octaves - 1) (int_of_float (Float.log2 x)) in
    let lo = Float.ldexp 1.0 e in
    let frac = (x -. lo) /. lo in
    let sub = imin (subs - 1) (int_of_float (frac *. float_of_int subs)) in
    1 + (e * subs) + sub
  end

(* Midpoint of a bucket's value range — the representative a
   percentile query returns (before clamping to the exact min/max). *)
let bucket_mid i =
  if i = 0 then 0.5
  else begin
    let e = (i - 1) / subs and sub = (i - 1) mod subs in
    let base = Float.ldexp 1.0 e in
    let width = base /. float_of_int subs in
    base +. (width *. (float_of_int sub +. 0.5))
  end

let[@inline] add_unboxed t x =
  let f = t.f in
  t.n <- t.n + 1;
  f.total <- f.total +. x;
  let delta = x -. f.mean_acc in
  f.mean_acc <- f.mean_acc +. (delta /. float_of_int t.n);
  f.m2 <- f.m2 +. (delta *. (x -. f.mean_acc));
  if x < f.lo then f.lo <- x;
  if x > f.hi then f.hi <- x;
  let b = bucket_of x in
  t.hist.(b) <- t.hist.(b) + 1

let add t x = add_unboxed t x

let add_int t c = add_unboxed t (float_of_int c)

let count t = t.n
let sum t = t.f.total
let mean t = if t.n = 0 then 0.0 else t.f.mean_acc
let variance t = if t.n < 2 then 0.0 else t.f.m2 /. float_of_int t.n
let min t = t.f.lo
let max t = t.f.hi

let percentile t p =
  (* NaN p used to slip through the rank arithmetic (int_of_float nan
     = 0, clamped to rank 1) and out-of-range p silently clamped; both
     are caller bugs, so reject them loudly. *)
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g not in [0,100]" p);
  if t.n = 0 then 0.0
  else if p = 0.0 then t.f.lo
  else if p = 100.0 then t.f.hi
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
      if r <= 0 then 1 else if r > t.n then t.n else r
    in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank && !i < buckets do
      seen := !seen + t.hist.(!i);
      incr i
    done;
    let v = bucket_mid (!i - 1) in
    (* Clamp to the exact extremes: p100 is exactly [max], and a
       one-sample histogram answers that sample's bucket range. *)
    Float.min t.f.hi (Float.max t.f.lo v)
  end

let median t = percentile t 50.0

let copy a =
  { n = a.n; f = { a.f with total = a.f.total }; hist = Array.copy a.hist }

(* Bucket-wise addition plus the standard parallel Welford
   combination — no re-streaming of samples (there are none).  An
   empty side short-circuits to a copy of the other: the general path
   happens to be algebraically right for n = 0 too (delta * 0 / n
   vanishes, min/max absorb the infinities), but only by accident of
   the sentinel values — the guard makes the contract explicit and
   keeps it true if the sentinels ever change. *)
let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
  let t = create () in
  let f = t.f in
  t.n <- a.n + b.n;
  f.total <- a.f.total +. b.f.total;
  if t.n > 0 then begin
    let na = float_of_int a.n and nb = float_of_int b.n in
    let n = float_of_int t.n in
    let delta = b.f.mean_acc -. a.f.mean_acc in
    f.mean_acc <- a.f.mean_acc +. (delta *. nb /. n);
    f.m2 <- a.f.m2 +. b.f.m2 +. (delta *. delta *. na *. nb /. n)
  end;
  f.lo <- Float.min a.f.lo b.f.lo;
  f.hi <- Float.max a.f.hi b.f.hi;
  Array.iteri (fun i c -> t.hist.(i) <- c + b.hist.(i)) a.hist;
  t
  end

(* Log2 view for ASCII histograms: index [e] counts observations in
   [2^e, 2^(e+1)); bucket 0's sub-1.0 values fold into index 0. *)
let log2_counts t =
  let acc = Array.make octaves 0 in
  acc.(0) <- t.hist.(0);
  for i = 1 to buckets - 1 do
    acc.((i - 1) / subs) <- acc.((i - 1) / subs) + t.hist.(i)
  done;
  acc

let log2_buckets = octaves
