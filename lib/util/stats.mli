(** Streaming summary statistics over a bounded log-bucket histogram.

    Used by the runtime to track per-data-structure fetch-latency
    distributions and by the benchmark harness to report medians over
    trials (the paper's "median cycles over 100 trials" methodology,
    Table 1).

    Memory is O(1) regardless of how many observations arrive: the
    distribution lives in an HDR-style histogram whose octaves
    [[2^e, 2^(e+1))]] are each split into 32 equal sub-buckets.
    Mean, variance, sum, min and max are exact; percentiles are
    approximate with relative error bounded by the sub-bucket width
    (~3% of the value) for observations ≥ 1.  Observations below 1.0
    (including negatives) share one coarse bucket — cycle counts, the
    intended payload, never land there. *)

type t
(** A mutable accumulator of float observations. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation: O(1), no allocation. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** Mean of observations; 0 when empty.  Exact (Welford). *)

val variance : t -> float
(** Population variance (Welford); 0 when fewer than 2 observations. *)

val min : t -> float
(** Smallest observation; [infinity] when empty.  Exact. *)

val max : t -> float
(** Largest observation; [neg_infinity] when empty.  Exact. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]]: nearest-rank over the
    histogram, answering the matching bucket's midpoint clamped to the
    exact [\[min, max\]].  Relative error ≤ 1/32 of the true value for
    observations ≥ 1.  Edge cases are defined, not accidental: an
    empty accumulator answers 0.0 for every valid [p]; [p = 0] answers
    the exact {!min} and [p = 100] the exact {!max} (no bucket math);
    a NaN or out-of-range [p] raises [Invalid_argument]. *)

val median : t -> float

val merge : t -> t -> t
(** Combine two accumulators into a fresh one: bucket-wise histogram
    addition plus the parallel Welford combination — O(buckets), no
    sample re-streaming.  When either side is empty the result is a
    copy of the other (so min/max/mean never see the empty side's
    sentinel values); merging two empty accumulators yields an empty
    one. *)

val log2_counts : t -> int array
(** Octave view for ASCII histograms: index [e] counts observations in
    [[2^e, 2^(e+1))]] (sub-1.0 observations fold into index 0).
    Length {!log2_buckets}. *)

val log2_buckets : int
