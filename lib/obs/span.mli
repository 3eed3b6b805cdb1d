(** Causal spans: per-request lifecycle records with parent edges.

    The aggregate profiler ({!Profile}) and the stall ledger
    ({!Attribution}) answer "which bucket is biggest?"; spans answer
    "which chain of fetches bounds *this* request?".  Every fabric
    transfer the runtime stalls on (and every prefetch it overlaps)
    becomes one span carrying the transfer's phase split — the
    queued/qp/proto/wire timestamps {!Cards_net.Fabric.transfer} has
    recorded since the fabric model landed — plus the access site and
    a causal parent edge:

    - a prefetch or batch span points at the access span that
      triggered the prefetcher ({!E_trigger});
    - a batch member points at its batch ({!E_member});
    - a retry span points at the demand fetch it delayed ({!E_retry});
    - a late-settle or timely-hit span points at the prefetch span it
      consumed ({!E_satisfy});
    - a demand fetch issued by a clean-fault trap handler points at
      the trap span ({!E_trap}).

    Parent ids are allocated before child ids (the demand root id
    exists before its retry children, the batch id before its
    members, the trap id before the nested fetch), so the edge
    relation is acyclic by construction: [sp_parent < sp_id] always,
    and one forward pass in id order suffices for chain costs
    ({!Critical_path}).

    Reconciliation invariant (extends the ledger exactness invariant
    to the causal layer): over the stall-carrying span kinds, each
    phase sums to exactly the ledger's corresponding cause total when
    the sample rate is 1.0, and to at most it otherwise —

      {ul
      {- [sp_queued] over {!Demand}/{!Escalated} spans per QP
         = [Attribution.Queue qp];}
      {- [sp_proto] / [sp_wire] over {!Demand}/{!Escalated}
         = [Proto] / [Wire];}
      {- [sp_retry] over {!Retry} spans = [Retry];}
      {- [sp_pf_wait] over {!Pf_settle} spans = [Pf_wait];}
      {- [sp_trap] over {!Trap} spans = [Trap].}}

    [Guard_exec] and [Bookkeeping] are per-instruction CPU costs, not
    fetch-path phases, and have no span counterpart.  {!Prefetch},
    {!Batch} and {!Pf_hit} spans carry fabric occupancy (or nothing)
    rather than CPU stall: their phase fields exist for timeline
    rendering but are excluded from {!cpu_totals}.

    The collector is the run's only observation stream, so it also
    holds {e marks}: zero-phase root spans that place the fabric
    spans in their context.  An interpreted call during which some
    span was recorded closes as a {!Call} span on the interpreter row
    (a duration, [sp_fn] the callee), so the call stack appears
    wherever there is fabric activity without one record per call;
    the runtime's policy changes ({!Degrade}, {!Policy_switch},
    {!Epoch}, {!Loop_version}) are zero-duration marks whose payload
    rides in the kind.  Marks are never sampled — the occasions
    recorded at any rate are those recorded without them — and the
    replay, the reconciliation and the flight recorder skip them
    ({!is_mark}).

    Collection is sampled at a configurable rate with a deterministic
    accumulator (no RNG, so runs stay reproducible) and costs nothing
    when off: the runtime holds [collector option] and every hook is
    behind one [match] on it. *)

type kind =
  | Demand  (** a demand fetch the CPU stalled on, served normally *)
  | Escalated  (** a demand fetch that exhausted retries and was
                   served by the reliable channel *)
  | Retry  (** one failed attempt of a demand fetch: the NACK
               turnaround or timeout budget plus the backoff wait *)
  | Prefetch  (** one prefetched object in flight (standalone or a
                  batch member); fabric occupancy, not CPU stall *)
  | Batch  (** a coalesced prefetch request covering its members *)
  | Pf_settle  (** an access that stalled waiting for an in-flight
                   prefetch to land (the late-prefetch case) *)
  | Pf_hit  (** an access satisfied by a timely prefetch — zero
                stall, recorded for the causal chain only *)
  | Trap  (** a clean-fault trap on the unguarded path *)
  | Call  (** mark: an interpreted call to [sp_fn] during which at
              least one span was recorded *)
  | Degrade of { level : int; observed_pct : int }
      (** mark: the prefetch window narrowed (or re-widened) to
          [level] (0 = full width) because the observed fault rate
          over the sliding window hit [observed_pct] percent *)
  | Policy_switch of { from_pf : string; to_pf : string }
      (** mark: adaptive mode changed this structure's prefetcher *)
  | Epoch  (** mark: an adaptive-mode epoch boundary *)
  | Loop_version of { clean : bool }
      (** mark: a versioned loop was entered, clean or instrumented *)

type edge =
  | E_trigger  (** prefetch/batch <- the access that ran the prefetcher *)
  | E_member  (** batch member <- its batch span *)
  | E_retry  (** retry attempt <- the demand fetch it delayed *)
  | E_satisfy  (** settle/hit <- the prefetch span it consumed *)
  | E_trap  (** demand fetch <- the trap span whose handler issued it *)

type t = {
  sp_id : int;
  sp_kind : kind;
  sp_parent : int;  (** parent span id, [-1] for roots *)
  sp_edge : edge option;  (** [None] iff [sp_parent = -1] *)
  sp_ds : int;  (** data-structure handle, [0] = unmanaged *)
  sp_obj : int;
  sp_fn : string;  (** access site: function ... *)
  sp_block : int;  (** ... block ... *)
  sp_instr : int;  (** ... instruction *)
  sp_issued : int;  (** cycle the occasion began (queue entry) *)
  sp_start : int;  (** cycle the transfer left the queue *)
  sp_complete : int;  (** cycle the span's cost was fully paid *)
  sp_queued : int;  (** QP queueing cycles *)
  sp_proto : int;  (** protocol + deref-map cycles *)
  sp_wire : int;  (** serialization / wire cycles *)
  sp_retry : int;  (** retry/backoff cycles ({!Retry} spans only) *)
  sp_pf_wait : int;  (** late-prefetch wait ({!Pf_settle} only) *)
  sp_trap : int;  (** trap penalty ({!Trap} spans only) *)
  sp_qp : int;  (** queue pair, [-1] when no transfer was involved *)
  sp_bytes : int;
  sp_fault : string option;  (** fault kind the transfer absorbed *)
}

val kind_name : kind -> string
val edge_name : edge -> string

val is_mark : kind -> bool
(** [Call] and the policy changes: no phases, no parent, never
    sampled. *)

val stall : t -> int
(** Sum of the six phase fields: the CPU cycles this span explains. *)

(** {1 Collector} *)

type collector

val create : ?rate:float -> unit -> collector
(** [rate] (default 1.0, clamped to \[0, 1\]) is the fraction of
    top-level occasions recorded, via a deterministic accumulator:
    rate 1.0 records everything, 0.5 every other occasion. *)

val sampled : collector -> bool
(** One sampling decision.  The runtime calls this once per occasion
    (a whole demand fetch including its retries, one prefetcher
    issue, one settle), never per span, so chains are recorded or
    skipped atomically. *)

val fresh : collector -> int
(** Allocate the next span id.  Ids are dense and increasing; parents
    must be allocated before children. *)

val add : collector -> t -> unit
(** Record a completed span (and notify the listener, if any). *)

val call :
  collector -> since:int -> fn:string -> issued:int -> complete:int -> unit
(** Close an interpreted call to [fn] that ran from [issued] to
    [complete]: adds a {!Call} mark iff the collector has grown past
    [since] spans (its {!length} when the call began). *)

val length : collector -> int
val spans : collector -> t list
(** In completion (add) order, which is not id order: a demand root's
    id is allocated before its retry children but added after them. *)

val iter : (t -> unit) -> collector -> unit

val set_listener : collector -> (t -> unit) -> unit
(** Called on every {!add}; how {!Sink} subscribes the flight
    recorder without a module cycle. *)

(** {1 In-flight prefetch registry}

    Maps [(ds, obj)] of an in-flight prefetch to its span id so the
    eventual settle/hit span can name its {!E_satisfy} parent. *)

val note_inflight : collector -> ds:int -> obj:int -> span:int -> unit
val take_inflight : collector -> ds:int -> obj:int -> int
(** Consume the registration; [-1] when the prefetch occasion was not
    sampled (or the mapping was superseded). *)

(** {1 Reconciliation and well-formedness} *)

type totals = {
  tot_queue : int array;  (** indexed by QP; grows as needed *)
  tot_proto : int;
  tot_wire : int;
  tot_retry : int;
  tot_pf_wait : int;
  tot_trap : int;
}

val cpu_totals : collector -> totals
(** Per-phase sums over the stall-carrying kinds only (see module
    doc); compare against {!Attribution.cause_totals}. *)

val well_formed : collector -> bool
(** Ids unique, every parent edge strictly backwards
    ([-1 <= sp_parent < sp_id]) and pointing at an allocated id, and
    [sp_edge] present iff there is a parent: the acyclicity the
    critical-path pass relies on. *)
