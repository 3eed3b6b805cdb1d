(** Critical-path attribution over the causal span graph.

    Answers "which single chain of fetches bounds end-to-end time?".
    The chain cost of a span is its own stall plus its parent's chain
    cost; because span parent edges point strictly backwards in id
    order ({!Span.well_formed}), one forward pass over spans sorted
    by id computes every chain cost, and the maximum is the critical
    path of the epoch.  The whole run is analyzed as one epoch —
    program start to the last recorded completion (see DESIGN.md §9).

    The report attributes the winning chain's cycles by phase
    (queued / proto / wire / retry / pf-wait / trap) and by data
    structure, and keeps the chain itself root-first for rendering
    ({!Export.critical_path_table}, JSONL, Chrome flow events). *)

type phase_split = {
  cp_queued : int;
  cp_proto : int;
  cp_wire : int;
  cp_retry : int;
  cp_pf_wait : int;
  cp_trap : int;
}

type report = {
  r_chain : Span.t list;  (** the dominant chain, root first *)
  r_chain_stall : int;  (** total stall cycles along the chain *)
  r_phases : phase_split;  (** chain stall split by phase *)
  r_by_ds : (int * int) list;  (** chain stall by structure, desc *)
  r_span_count : int;  (** spans analyzed: every span but the marks *)
  r_end : int;  (** last completion cycle seen across them *)
}

val analyze : Span.collector -> report option
(** [None] iff no span other than a mark ({!Span.is_mark}) was
    recorded.  A report with an all-zero
    chain ([r_chain_stall = 0]) means every recorded span was free —
    e.g. a run of pure timely prefetch hits. *)
