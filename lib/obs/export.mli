(** Exporters: human tables, CSV, and the span collector's
    JSON-lines, Chrome [trace_event] and folded-stack views.

    The Chrome format loads directly in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}: each inbound queue pair and
    each data structure becomes its own thread row, and the
    interpreter's call spans nest on thread 0. *)

val metrics_csv : Metrics.t -> string
(** Header line plus one row per sample, every sample field in order —
    loads directly into pandas / gnuplot for rate plots. *)

val span_json : Span.t -> Cards_util.Json.t

val spans_jsonl : Span.collector -> string
(** One JSON object per line, completion order. *)

val spans_chrome_trace :
  ?freq_ghz:float ->
  ?names:(int -> string) ->
  Span.collector ->
  Cards_util.Json.t
(** Spans as Chrome "X" events — fabric-carrying spans on their queue
    pair's row, CPU-side spans on their structure's row, calls on the
    interpreter's row (thread 0) — with every causal parent edge
    rendered as a flow arrow ("s"/"f" pair), so Perfetto draws chains
    across rows.  [freq_ghz] (default 2.4, the paper's Xeon) converts
    cycle stamps to the format's microsecond timestamps; [names]
    labels the per-structure rows. *)

val spans_chrome_trace_string :
  ?freq_ghz:float -> ?names:(int -> string) -> Span.collector -> string

val spans_folded : ?names:(int -> string) -> Span.collector -> string
(** Folded-stack flamegraph lines ([root;child;...;leaf cycles], one
    per distinct causal stack, sorted): each stall-carrying span's
    cycles aggregate under its parent chain, so [flamegraph.pl] or
    speedscope render the span DAG as a flame graph.  Frames are
    [kind:structure:fn\@block.instr] with the format's separator
    characters sanitized out. *)

val critical_path_table :
  ?title:string ->
  names:(int -> string) ->
  Critical_path.report ->
  Cards_util.Table.t
(** The dominant causal chain root-first — one row per span with its
    stall and dominant phase — closed by a CHAIN row (total stall and
    phase split) and an ANALYZED row (span count, stall by structure). *)

val write_file : string -> string -> unit

val profile_table :
  ?title:string ->
  names:(int -> string) ->
  Profile.t ->
  Attribution.t ->
  Cards_util.Table.t
(** Per-structure cycle-attribution table: a coarse view of the stall
    ledger, one row per structure it charged, with its causes grouped
    into columns (guard = [Guard_exec], demand stall = [Proto] +
    [Wire], queueing = every [Queue qp], pf stall = [Pf_wait], retry,
    trap, alloc = [Bookkeeping]) and the profile's [p_hidden]
    estimate alongside.  A compute row and a TOTAL row
    ([compute + ledger total], the run's cycle count) close it. *)

val latency_table : ?title:string -> Profile.t -> Cards_util.Table.t
(** Log₂ fetch-latency histogram with ASCII bars, closed by a
    p50/p90/p99/p999 percentile summary row. *)

val latency_percentiles_table :
  ?title:string -> names:(int -> string) -> Profile.t -> Cards_util.Table.t
(** Per-structure fetch-latency percentiles (p50/p90/p99/p999/max)
    plus an [ALL] row merged over every structure. *)

val serve_latency_table :
  ?title:string ->
  (string * Cards_util.Stats.t * int) list ->
  Cards_util.Table.t
(** Per-tenant request-latency percentiles for the serving layer:
    one [(tenant, latency accumulator, served count)] row each, plus
    an [ALL] row merged bucket-wise over every tenant (exact on the
    histogram).  Empty accumulators are skipped. *)

val attribution_table :
  ?title:string -> names:(int -> string) -> Attribution.t -> Cards_util.Table.t
(** Per-structure stall decomposition: one column per root cause
    (protocol, wire, one per queue pair, late-prefetch, guard, trap,
    bookkeeping); the TOTAL row sums exactly to {!Attribution.total}. *)

val attribution_sites_table :
  ?title:string ->
  ?limit:int ->
  names:(int -> string) ->
  Attribution.t ->
  Cards_util.Table.t
(** Heaviest access sites (default top 12) with their dominant causes
    — the "loop at [traverse/bb2] paid 71% of its stall to qp0
    queueing" view. *)

val fabric_table :
  ?title:string ->
  ?over_budget:int ->
  ?per_ds:(string * int) list ->
  Cards_net.Fabric.stats ->
  Cards_util.Table.t
(** Fabric transport counters: objects fetched/written, batching
    (coalesced requests and the objects they carried, both directions),
    queueing split per inbound queue pair, fault-injection counters
    (shown only when nonzero), and — when given — the runtime's
    over-budget eviction count.  [per_ds] adds one indented
    [(structure name, bytes)] row under "fetched bytes" for each
    structure that actually pulled bytes over the fabric — the
    layout-factorization pass's before/after evidence. *)

val resilience_table :
  ?title:string ->
  retries:int ->
  timeouts:int ->
  escalations:int ->
  pf_failed:int ->
  pf_suppressed:int ->
  degrade_steps:int ->
  recover_steps:int ->
  degrade_level:int ->
  unit ->
  Cards_util.Table.t
(** The runtime's fault-survival counters ({!Cards_runtime.Rt_stats}
    feeds these): retries, timeouts, reliable-channel escalations,
    prefetch attempts dropped or suppressed, and the graceful-
    degradation step counts with the final window level. *)

val metrics_table : ?title:string -> Metrics.t -> Cards_util.Table.t
(** Per-interval deltas (faults, prefetch accuracy) per structure —
    the adaptive prefetcher's behaviour over time. *)

val whatif_table :
  ?title:string ->
  (Whatif.prediction * int option) list ->
  Cards_util.Table.t
(** The "what should we optimize next?" report: one row per scenario
    (keep the {!Whatif.rank} order) with predicted cycles and speedup,
    plus the measured cycles and relative error when the scenario was
    validated by re-execution ([None] renders "-"), closed by a
    BASELINE row. *)
