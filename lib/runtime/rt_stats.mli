(** Runtime event counters, per data structure and aggregated.

    CaRDS "monitors cache hits and misses for each memory object,
    leveraging these statistics on a per-data structure basis" (§4.2);
    the benchmark harness reads them to report guard counts, fault
    counts, prefetch accuracy and coverage. *)

type ds = {
  mutable guards : int;          (** guard executions *)
  mutable guard_hits : int;      (** guards finding the object resident *)
  mutable remote_faults : int;   (** demand fetches *)
  mutable clean_faults : int;    (** fallback faults on unguarded paths *)
  mutable plain_accesses : int;  (** data accesses (loads/stores) *)
  mutable prefetch_issued : int;
  mutable prefetch_used : int;   (** prefetched object later accessed *)
  mutable prefetch_late : int;   (** access arrived before the data did *)
  mutable evictions : int;
  mutable demotions : int;       (** runtime overrides of a pinned hint *)
  mutable fetched_bytes : int;
      (** bytes this structure pulled over the fabric — demand
          fetches, prefetches and retries alike.  Summed over every
          handle it equals {!Cards_net.Fabric.stats.fetched_bytes}
          exactly (the fabric counts a transfer's bytes whenever it
          completes [Ok], including late completions the runtime
          abandoned; the runtime mirrors that rule per handle). *)
}

val make_ds : unit -> ds

type t

val create : unit -> t

val ds_stats : t -> int -> ds
(** Stats bucket for a runtime handle (auto-created). *)

val total : t -> ds
(** Sum over all handles plus the unmanaged bucket. *)

val unmanaged_bucket : t -> ds

val prefetch_accuracy : ds -> float option
(** used / issued; [None] when nothing was issued (no data — render
    as ["-"], see {!Cards_util.Table.fmt_ratio_opt}). *)

val prefetch_coverage : ds -> float
(** Fraction of would-be misses that prefetching absorbed:
    used / (used + remote_faults). *)

val note_over_budget : t -> unit
(** Record an occupancy overflow: eviction gave up (everything left in
    the ring was in flight or exhausted its spin bound) with the
    remotable cache still above budget. *)

val over_budget : t -> int
(** Times eviction left the cache over budget — transient overshoot
    from deep in-flight prefetch windows, surfaced instead of silently
    ignored. *)

(** {2 Resilience counters}

    Runtime-wide (not per structure): retry/degradation policy is a
    global response to fabric health.  All stay zero when fault
    injection is off. *)

val note_retry : t -> unit
val retries : t -> int
(** Demand-fetch attempts re-issued after a transient failure or a
    timeout. *)

val note_timeout : t -> unit
val timeouts : t -> int
(** Late completions that blew the per-fetch timeout budget. *)

val note_escalation : t -> unit
val escalations : t -> int
(** Fetches that exhausted their retries and fell back to the
    reliable channel ({!Cards_net.Fabric.fetch_reliable}). *)

val note_pf_failed : t -> unit
val pf_failed : t -> int
(** Prefetch requests NACKed by the fabric and dropped (prefetches
    are speculative; the demand path re-fetches if needed). *)

val note_pf_suppressed : t -> int -> unit
val pf_suppressed : t -> int
(** Prefetch targets not issued because graceful degradation narrowed
    the window. *)

val note_degrade_step : t -> unit
val degrade_steps : t -> int
(** Times the observed fault rate pushed the prefetch window one step
    narrower. *)

val note_recover_step : t -> unit
val recover_steps : t -> int
(** Times a recovered fabric let the window re-widen one step. *)

val handles : t -> int list
