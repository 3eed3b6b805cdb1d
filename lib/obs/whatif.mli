(** What-if causal profiler: virtual speedups from the span graph.

    Coz-style causal profiling asks "how much faster would the whole
    run be if {e this} got faster?" and answers it by experiment.
    Because our fabric is a deterministic discrete-event simulator we
    can do both halves honestly: {!predict} replays the recorded span
    graph ({!Span}) under perturbed phase costs and computes the
    end-to-end cycle count analytically, and the runtime knobs
    ({!Cards_runtime.Runtime.whatif_config} from an {!exec}) re-run
    the {e same} program with the parameter actually changed so the
    prediction can be validated against reality — the bench [whatif]
    section asserts identity-exactness, directional agreement, and a
    bounded relative error on every catalog scenario.

    Prediction model (one forward pass over spans in id order, the
    same order {!Critical_path} uses):

    - Each span's recorded phases are re-priced by the scenario's
      factors.  CPU-stall spans ([Demand]/[Escalated]/[Retry]/
      [Pf_settle]/[Trap]) contribute the difference between old and
      new stall to a running signed [cpu_shift]: the amount by which
      the CPU timeline has moved earlier (positive) or later.
    - Fabric occupancy is respected per QP: a span that was queued
      re-derives its queue wait from when its QP frees up under the
      new cost regime (tracked as a per-QP delta against the recorded
      schedule), so "queue ×0" and "proto ×0.5" interact the way the
      real fabric makes them interact.
    - Prefetch/batch spans don't stall the CPU, but their new
      completion times are tracked so that [Pf_settle] spans re-derive
      their wait from when the prefetch {e now} lands relative to when
      the access {e now} happens — a faster wire shrinks late-prefetch
      waits without being asked to.
    - Marks ({!Span.is_mark}: calls and policy changes) carry no phase
      and are skipped.
    - The identity scenario (every factor 1.0) produces zero shift
      everywhere and therefore predicts the measured run {e exactly};
      this is asserted, not hoped for.

    Known approximations (DESIGN.md §11): spans are replayed in id
    order, not re-scheduled in time order; retry NACK turnarounds hold
    a QP in reality but carry no QP id in the span, so their occupancy
    is not re-derived; second-order effects of timing on {e decisions}
    (eviction order, degradation, adaptive prefetch switching) are
    invisible to replay.  The bench bounds the resulting error. *)

(** {1 Scenarios} *)

type scope =
  | Global        (** perturb every span *)
  | Ds of int     (** perturb only spans of one structure (handle) *)

type factors = {
  f_queued : float;   (** QP queue-wait multiplier *)
  f_proto : float;    (** protocol-cost multiplier *)
  f_wire : float;     (** serialization multiplier *)
  f_retry : float;    (** retry/backoff multiplier *)
  f_pf_wait : float;  (** late-prefetch-wait multiplier *)
  f_trap : float;     (** trap-penalty multiplier *)
}

val unit_factors : factors
(** All 1.0: the identity perturbation. *)

(** How to {e execute} a scenario for real, so predictions can be
    validated by deterministic re-execution.  Interpreted by
    [Runtime.whatif_config], which maps it onto config knobs. *)
type exec =
  | Exec_none
      (** not executable (no runtime knob models it) *)
  | Exec_scale of { eds : string option; proto : float; wire : float }
      (** scaled fabric costs, globally or for one structure (by
          static name); [proto = wire = 1.0] re-runs the baseline *)
  | Exec_qp of int
      (** re-run with this many inbound queue pairs *)
  | Exec_fault_free
      (** re-run with fault injection off *)
  | Exec_instant_prefetch
      (** re-run with prefetch completions landing instantly *)

type scenario = {
  sc_id : string;        (** stable key, e.g. ["proto-x0.5"] *)
  sc_label : string;     (** human description for the report *)
  sc_scope : scope;
  sc_factors : factors;
  sc_exec : exec;
}

val identity : scenario
(** Unit factors, global scope, executed as an unperturbed re-run.
    Predicts the measured cycle count exactly and re-executes
    bit-identically — the calibration row of every report. *)

val scenario_of_factors :
  id:string -> label:string -> ?scope:scope -> ?exec:exec -> factors ->
  scenario

val catalog :
  ?per_ds:int -> names:(int -> string) -> Span.collector -> scenario list
(** The built-in "what should we optimize next?" scenario set:
    identity, [proto ×0.5] (a near-cache RPC path), [wire ×0]
    (infinite bandwidth), [queue ×0] (infinite QPs), [pf_wait ×0]
    (perfect prefetch), [retry ×0] (fault-free fabric) — plus, for the
    [per_ds] (default 2) structures carrying the most recorded CPU
    stall, a per-structure [proto ×0.5] scoped both in prediction (by
    handle) and execution (by the structure name from [names]).  Every
    entry is executable. *)

(** {1 Prediction} *)

type prediction = {
  p_scenario : scenario;
  p_baseline : int;     (** measured end-to-end cycles *)
  p_cycles : int;       (** predicted end-to-end cycles *)
  p_saved : int;        (** [p_baseline - p_cycles] (negative: slower) *)
  p_speedup : float;    (** [p_baseline / p_cycles] *)
  p_chain_stall : int;
      (** predicted critical-chain stall; for the identity scenario
          this equals [Critical_path.analyze]'s [r_chain_stall]
          exactly (asserted by tests) *)
}

val predict : total:int -> Span.collector -> scenario -> prediction
(** Replay the span graph under the scenario's factors.  [total] is
    the measured end-to-end cycle count the baseline run reported. *)

val rank : total:int -> Span.collector -> scenario list -> prediction list
(** Predict every scenario and sort best-first (most cycles saved;
    ties by [sc_id] so the order is deterministic). *)
