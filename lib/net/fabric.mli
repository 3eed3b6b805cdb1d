(** Simulated RDMA fabric between the compute node and the memory node.

    Models the paper's testbed: 25 Gb/s ConnectX-4 NICs on 2.4 GHz
    Xeons, driven through a DPDK/AIFM-style userspace stack.  Time is
    measured in CPU cycles (the unit of the whole simulator).

    The model is a full-duplex link with:
    - a fixed per-request protocol cost ([proto_cycles]) covering
      NIC doorbells, completion polling, and runtime bookkeeping — this
      dominates small-transfer latency, matching Table 1's ~59 K-cycle
      remote faults for 4 KiB objects;
    - a serialization term [bytes / bytes_per_cycle] per transfer;
    - [qp_count] inbound queue pairs with least-loaded dispatch:
      transfers serialize behind earlier ones on the same QP, so deep
      prefetch windows genuinely contend with demand fetches — but a
      second QP lets a demand fault slip past a streaming window;
    - batching ({!fetch_many_attempt}): a run of objects coalesced into
      one request pays [proto_cycles] once plus the summed
      serialization — the RPC-aggregation effect that makes
      prefetching amortize anything at all;
    - posted writebacks: evictions occupy the outbound direction for
      the full protocol + serialization time but never block the CPU;
    - deterministic fault injection (off by default): a seeded PRNG
      fails, delays, or duplicates transfer completions at a
      configurable per-transfer rate, so the runtime's retry/backoff
      and degradation machinery can be exercised and tested.  Faults
      perturb {e timing only} — object payloads always arrive intact —
      so program outputs are invariant under any fault rate. *)

type fault_kind =
  | Transient   (** the transfer fails outright: the queue pair is held
                    for the protocol turnaround (request + NACK) and
                    nothing lands; the caller may retry *)
  | Late        (** congestion: the completion is delayed by 1-3x the
                    protocol cost, and the queue pair stays occupied
                    until the late completion *)
  | Duplicate   (** the data lands on time but a duplicated completion
                    occupies the queue pair for one extra protocol turn;
                    callers deduplicate by construction *)

val fault_kind_name : fault_kind -> string
(** ["transient"] / ["late"] / ["duplicate"]. *)

type fault_config = {
  fault_rate : float;           (** per-transfer fault probability, [0, 1] *)
  fault_seed : int;             (** PRNG seed: same seed, same schedule *)
  fault_kinds : fault_kind list; (** kinds to draw from, uniformly *)
}

val no_faults : fault_config
(** Rate 0: fault injection fully off.  The PRNG is never consulted,
    so a fabric with [no_faults] is bit-identical to one that predates
    fault injection. *)

type config = {
  proto_cycles : int;      (** fixed request/response overhead per transfer *)
  bytes_per_cycle : float; (** link bandwidth in bytes per CPU cycle *)
  qp_count : int;          (** inbound queue pairs (>= 1) *)
  faults : fault_config;   (** fault injection; defaults to {!no_faults} *)
}

val default_config : config
(** 25 Gb/s at 2.4 GHz (≈ 1.30 bytes/cycle) with a protocol cost
    calibrated so a 4 KiB demand fetch costs ≈ 59 K cycles end to end
    (paper Table 1, CaRDS remote fault).  Single QP, faults off: the
    runtime chooses its own QP count
    ({!Cards_runtime.Runtime.default_config}). *)

val trackfm_config : config
(** Same link, lighter protocol path, calibrated to TrackFM's ≈ 46 K
    cycles per remote guard miss (Table 1).  Single QP, faults off,
    and TrackFM never batches — its leaner-but-unbatched path is part
    of the Fig. 8 contrast. *)

type scale = {
  s_proto : float;  (** multiplier on the per-request protocol cost *)
  s_wire : float;   (** multiplier on serialization (and congestion
                        delay, which rides in the wire term) *)
}
(** Per-call cost multiplier for what-if experiments: a near-cache RPC
    path is [s_proto = 0.5], an infinitely fast link is [s_wire = 0.0].
    Factor [1.0] is special-cased to the untouched integer cost, so a
    unit-scaled call is bit-identical to an unscaled one — the whatif
    bench gate depends on this.  Scaling applies to inbound fetches
    only; writebacks are posted (they never block the CPU and never
    feed back into simulated time), so scaling them would be
    unobservable. *)

val unit_scale : scale
(** [{ s_proto = 1.0; s_wire = 1.0 }]: no perturbation. *)

type t

val create : config -> t
(** @raise Invalid_argument when [qp_count < 1] or [fault_rate] is
    outside [0, 1]. *)

val set_fault_rate : t -> float -> unit
(** Override the live fault rate (the configured kinds and seed keep
    going).  Lets tests and operators model a fabric that degrades and
    then recovers mid-run — the runtime's window tracker re-widens its
    prefetching when the observed rate drops.
    @raise Invalid_argument when the rate is outside [0, 1]. *)

val faults_configured : t -> bool
(** True when the fabric was created with a non-zero fault rate. *)

type transfer = private {
  mutable t_start : int;     (** when a queue pair picked the transfer up *)
  mutable t_queued : int;    (** [t_start - now]: cycles spent waiting in line *)
  mutable t_complete : int;  (** completion time (of the last object for batches) *)
  mutable t_qp : int;        (** the queue pair that carried it *)
  mutable t_proto : int;     (** per-request protocol cycles this transfer paid *)
  mutable t_ser : int;       (** serialization cycles (summed over a batch; a
                                 late fault's congestion delay rides here so the
                                 queued/proto/ser split still covers the stall) *)
  mutable t_fault : fault_kind option;
      (** the fault injected into this (completed) transfer, if any *)
}
(** A request that landed.  {b Owned by the fabric}: every fetch
    returns the same record (and the same [Ok] around it), rewritten
    in place, so a fetch allocates nothing.  It holds a request's
    outcome until the next inbound request — {!fetch_attempt},
    {!fetch_many_attempt} or {!fetch_reliable} — on the same fabric;
    writebacks leave it alone.  A caller that keeps a transfer across
    a later fetch takes a {!copy_transfer}.  Private: only the fabric
    writes it. *)

type failure = private {
  mutable f_start : int;  (** when the queue pair picked the doomed attempt up *)
  mutable f_fail : int;   (** when the NACK came back ([f_start + proto]); the
                              QP is occupied until then *)
  mutable f_qp : int;     (** the queue pair it burned *)
}
(** A NACKed request.  Owned by the fabric and valid until the next
    inbound request, as {!transfer}. *)

val copy_transfer : transfer -> transfer
(** A fresh record with the same fields, which later requests do not
    rewrite. *)

type port_event = {
  pe_dir : [ `In | `Out ];  (** fetch side or (posted) writeback side *)
  pe_issue : int;     (** the caller's [now] when the request was issued *)
  pe_start : int;     (** when a queue pair / the outbound link took it *)
  pe_complete : int;  (** final completion (NACK time for failures;
                          already includes any Late/Duplicate extension) *)
  pe_qp : int;        (** inbound queue pair, or [-1] outbound *)
  pe_count : int;     (** objects carried (batch size; 1 otherwise) *)
  pe_bytes : int;     (** payload bytes requested *)
  pe_ok : bool;       (** [false]: transient NACK, nothing landed *)
}
(** One record per wire-level request, as observed at this fabric's
    port.  Emitted with {e final} times — a Late or Duplicate fault has
    already extended the completion, so an observer never sees a
    provisional timestamp — and exactly once per request.  Because the
    fabric rejects a backwards [now] per direction, the emitted stream
    is nondecreasing in [pe_issue] per direction. *)

val set_port : t -> (port_event -> unit) option -> unit
(** Install (or clear) the port observer.  Pure observation: the
    callback sees every event but cannot perturb timing or stats —
    [None] (the default) is bit-identical to any installed observer. *)

val fetch_attempt :
  t -> scale:scale -> now:int -> bytes:int -> (transfer, failure) result
(** Schedule an inbound fetch of one object starting at [now] on the
    least-loaded queue pair, through the fault injector: one fault
    decision is drawn per attempt.  [Error] is a transient failure
    (retry at a later [now] if desired); [Ok] transfers may still carry
    a [Late] or [Duplicate] fault in [t_fault].  The transfer exposes
    the queue/protocol/serialization split
    ([t_queued + t_proto + t_ser = t_complete - now]) so the runtime's
    cycle-attribution profiler and stall ledger can decompose stall
    cycles into root causes.  With the rate at 0 the attempt never
    fails and consults no randomness.  [scale] multiplies the protocol
    and wire terms for this call; {!unit_scale} leaves them untouched.
    It is a required argument so that no call allocates an option.

    The result and the record inside it belong to the fabric and are
    rewritten by the next inbound request (see {!transfer}): the call
    allocates nothing.

    Retried attempts MUST re-enter at a non-decreasing [now]: the
    fabric raises [Invalid_argument] when the inbound clock moves
    backwards rather than corrupting queue state. *)

val fetch_many_attempt :
  t -> scale:scale -> now:int -> sizes:int array -> count:int ->
  (transfer, failure) result
(** Coalesce a batch of objects, sized [sizes.(0 .. count-1)], into
    one request on the least-loaded queue pair, through the fault
    injector.  [sizes] may be longer than [count]: the caller keeps
    one array for every batch.  The protocol cost is paid once; object
    [i] completes at [start + proto + Σ serialization sizes.(0..i)],
    which {!completions} holds at index [i], and the QP stays busy for
    one protocol cost plus the summed serialization.  One fault decision
    covers the whole request (it is one request on the wire): a
    transient fault NACKs the entire batch, a late fault delays every
    completion in it by the same congestion term.  A completed request
    counts one batch and [n] fetches in {!stats}; a NACKed one counts
    neither.  [scale] and the fabric-owned result as in
    {!fetch_attempt}: the call allocates nothing.
    @raise Invalid_argument when [count < 1], [count] exceeds
    [Array.length sizes] or [now] moved backwards. *)

val completions : t -> int array
(** Per-object completion times of the last inbound request that
    landed: entry [i] for its object [i], valid for as many entries as
    it carried objects (the array may be longer).  The array belongs to
    the fabric: read it, do not write it, and read it before the next
    inbound request, which rewrites it (or replaces it with a longer
    one). *)

val fetch_reliable : t -> scale:scale -> now:int -> bytes:int -> transfer
(** The escalation path for a fetch whose retries are exhausted: a
    heavyweight reliable channel (send with end-to-end acknowledgement
    rather than a one-sided read) paying [2 * proto_cycles] plus
    serialization.  Never faulted — guarantees forward progress at any
    fault rate.  Counted in {!stats} [reliable_fetches].  [scale] as in
    {!fetch_attempt}; the record is the fabric's, as there.
    @raise Invalid_argument on a backwards [now]. *)

val nominal_fetch_cycles : t -> bytes:int -> int
(** Uncontended end-to-end fetch cost ([proto + serialization]) —
    what a demand fetch of [bytes] would cost on an idle link.  Used
    to estimate latency hidden by timely prefetches. *)

val writeback : t -> now:int -> bytes:int -> unit
(** Schedule an outbound (eviction) transfer as a posted write: the
    CPU does not block, but the outbound direction is occupied for the
    full [proto + serialization] time — writes cross the same wire as
    reads (DESIGN.md §fabric).  Writeback faults are absorbed by the
    fabric itself (the post is NACKed and re-posted, or the duplicate
    drained): the outbound direction is occupied longer and the fault
    is counted, but the caller never sees it.
    @raise Invalid_argument when [now] precedes an earlier outbound
    call's [now]. *)

val writeback_many : t -> now:int -> count:int -> bytes:int -> unit
(** Coalesced writeback of [count] dirty objects totalling [bytes]:
    one posted request paying [proto_cycles] once.  Counts [count]
    writebacks and one wb-batch in {!stats}.  Faults as {!writeback}.
    @raise Invalid_argument when [count < 1] or [now] moved backwards. *)

val inbound_busy_until : t -> int
(** When the earliest inbound queue pair frees up (for tests). *)

val outbound_busy_until : t -> int
(** When the outbound direction frees up (for tests). *)

type stats = private {
  mutable fetches : int;           (** objects fetched (batched or not) *)
  mutable fetched_bytes : int;
  mutable batches : int;           (** coalesced inbound requests *)
  mutable batched_objects : int;   (** objects carried by those requests *)
  mutable writebacks : int;        (** objects written back *)
  mutable written_bytes : int;
  mutable wb_batches : int;        (** coalesced outbound requests *)
  queue_in_cycles : int;
      (** cycles inbound transfers (fetches) spent queued, all QPs: the
          sum of [qp_queue_cycles] *)
  mutable queue_out_cycles : int;
      (** cycles outbound transfers (writebacks) spent queued *)
  qp_queue_cycles : int array;
      (** inbound queue cycles per queue pair (length [qp_count]) *)
  mutable faults_transient : int;  (** inbound transfers NACKed *)
  mutable faults_late : int;       (** inbound completions delayed by congestion *)
  mutable faults_dup : int;        (** duplicated inbound completions *)
  mutable failed_fetches : int;    (** failed fetch attempts (= transient faults) *)
  mutable reliable_fetches : int;  (** escalations over the reliable channel *)
  mutable wb_faults : int;         (** outbound faults absorbed by the fabric *)
}
(** The fabric's counters.  Private: only the fabric writes them. *)

val stats : t -> stats
(** A snapshot of the counters: later requests do not change it. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum, for aggregating per-tenant fabric slices into one
    global view (the serving layer's Σ-decomposition invariant).
    [qp_queue_cycles] is summed element-wise, the shorter array
    zero-padded to the longer length. *)

val faults_injected : stats -> int
(** [faults_transient + faults_late + faults_dup] (inbound only). *)
