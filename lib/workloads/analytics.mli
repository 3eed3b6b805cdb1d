(** The paper's data-analytics workload: NYC-taxi-style trip analysis
    (§5, "analytics").

    The original uses the 2014 Kaggle NYC taxi dataset (16 GB on disk,
    31 GB working set); the sealed environment has no dataset, so the
    program {e generates} a synthetic trip table with the same column
    structure and skew (hour-of-day rush peaks, Zipf-popular zones,
    fare correlated with distance) and then runs a battery of analytics
    queries over it: average fare by hour, zone histograms + top-k,
    long-trip filters, monthly revenue, payment split, speed
    statistics, and a zone-distance aggregation.

    Columns and aggregation tables are separate heap allocations, so
    DSA identifies ~22 disjoint data structures, matching the paper's
    count for this workload.  Query passes revisit the hot columns
    (hour, fare, distance) far more than the cold ones (vendor,
    passenger count), which is exactly the asymmetry per-structure
    remoting policies exploit. *)

val n_zones : int
val n_hours : int

val source : trips:int -> query_passes:int -> string
(** MiniC source.  [trips] = row count; [query_passes] = how many
    times the query battery runs (hot/cold contrast grows with it). *)

val source_server : trips:int -> string
(** The serving variant: the same columns, aggregation tables, and
    query functions, rooted in a global [struct Db] that [setup()]
    builds once and [req(op, a, b)] queries per request (ops 0-6 =
    the float queries, op 7 = the cold integer query; each prints its
    result).  The query functions are [source]'s own, so a battery
    over ops 0-7 reproduces one [source] pass.  [main] runs exactly
    that battery standalone. *)

val source_aos : trips:int -> query_passes:int -> string
(** The same trip table and query battery laid out row-wise: one array
    of 88-byte [struct Trip] records instead of eleven columns — the
    layout-factorization pass's AoS→SoA target.  Printed outputs match
    [source]'s bit for bit (same RNG stream, same query arithmetic),
    so the two compile-side layouts are differential oracles for each
    other. *)
