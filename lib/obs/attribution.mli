(** Stall root-cause attribution: the one record of every stalled CPU
    cycle.  Each is charged to exactly one root cause —

    - {!Proto}: per-request protocol overhead (doorbells, completion
      polling, bookkeeping) plus address-to-object mapping;
    - {!Wire}: serialization cycles on the link;
    - [Queue qp]: inbound contention — cycles spent queued behind
      earlier transfers on queue pair [qp] (e.g. a demand fault stuck
      behind a streaming prefetch window);
    - {!Pf_wait}: stalls on late (in-flight) prefetches;
    - {!Retry}: cycles burned on failed fetch attempts, backoff
      waits, and the reliable-channel escalation under fault
      injection — zero on a healthy fabric;
    - {!Guard_exec}: custody checks and local guard hit/miss cost;
    - {!Trap}: clean-fault trap overhead on unguarded paths;
    - {!Bookkeeping}: [ds_init] / [dsalloc] / loop-version checks —

    and double-keyed by data structure {e and} access site (function,
    basic block, instruction index: the identity the compiler's
    rewrite operates on, threaded from the interpreter).  The runtime
    advances its clock for a stall and charges the ledger in one step,
    so

    {[ total ledger = Runtime.now - Profile.compute ]}

    holds by construction — every non-compute clock advance lands here
    exactly once, with the queue/protocol/serialization split
    {!Cards_net.Fabric.transfer} exposes.  Per-structure views
    ([Export.profile_table], [Export.attribution_table]) are folds
    over it.  The ledger never writes the clock: attributed and
    unattributed runs are cycle-identical. *)

type cause =
  | Proto        (** per-request protocol + mapping overhead *)
  | Wire         (** serialization cycles on the link *)
  | Queue of int (** inbound queueing behind this queue pair *)
  | Pf_wait      (** stall waiting on a late (in-flight) prefetch *)
  | Retry        (** failed attempts, backoff waits, escalations *)
  | Guard_exec   (** custody checks + local guard hit/miss cost *)
  | Trap         (** clean-fault trap overhead *)
  | Bookkeeping  (** ds_init / dsalloc / loop-version checks *)

val cause_name : cause -> string
(** Stable human label, e.g. ["qp0 queueing"]. *)

type site = {
  s_fn : string;   (** function name *)
  s_block : int;   (** basic-block id ([-1]: outside interpreted code) *)
  s_instr : int;   (** instruction index within the block *)
}

val unknown_site : site
(** [("(runtime)", -1, -1)]: charges from direct runtime API use
    (benchmarks, tests) with no interpreted instruction behind them. *)

val site_name : site -> string
(** ["fn/bb2#5"], or just the function name for {!unknown_site}. *)

type t

val create : unit -> t

val charge :
  t -> ds:int -> fn:string -> block:int -> instr:int -> cause -> int -> unit
(** Charge [cycles] to one cause at one (structure, site) key.  The
    site is passed as components, and a direct-mapped cache of ledger
    cells keyed by them (the function name compared physically)
    answers repeat charges without allocating or hashing, in whatever
    order sites interleave; only a key's first charge, or one evicted
    from its cache slot, probes the table. *)

val total : t -> int
(** Σ over every key and cause, kept as a running sum by {!charge}, so
    it costs O(1); for a runtime's ledger it equals
    [Runtime.now - Profile.compute]. *)

val causes : t -> cause list
(** Display order: protocol, wire, one [Queue] entry per queue pair
    ever charged, late-prefetch, retry, guard, trap, bookkeeping. *)

val cause_totals : t -> (cause * int) list
(** Per-cause totals over all structures and sites, in {!causes}
    order; their sum is {!total}. *)

val ds_cause_totals : t -> int -> (cause * int) list
(** Per-cause totals restricted to one structure handle. *)

val ds_list : t -> int list
(** Structure handles with at least one charged cell, ascending. *)

type site_row = {
  r_site : site;
  r_ds : int;
  r_total : int;                 (** this key's total stall *)
  r_causes : (cause * int) list; (** non-zero causes, largest first *)
}

val site_rows : ?limit:int -> t -> site_row list
(** Per-(site, structure) breakdown, heaviest first — the "loop at
    [traverse]/bb2 paid 71% of its stall to qp0 queueing" view. *)
