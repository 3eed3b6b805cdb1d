(** The instrumentation hook handed to the runtime and interpreter.

    A sink bundles an optional metrics series ({!Metrics}), an
    optional causal span collector ({!Span}) — the run's one
    observation stream — with its optional flight recorder
    ({!Recorder}), and the {!Reporter} through which all
    human-readable diagnostics flow.  The default {!null} sink has
    none of them: the runtime and the interpreter cache {!spans} and
    {!sampling} when they are created, so a run without observability
    tests one cached field per hook, does no extra allocation and
    follows the seed fast path. *)

type t

val null : t
(** No metrics, no spans, null reporter; every hook is a
    no-op. *)

val create :
  ?metrics_interval:int ->
  ?span_rate:float ->
  ?postmortem:bool ->
  ?reporter:Reporter.t ->
  unit ->
  t
(** Metric sampling is enabled iff [metrics_interval] (cycles) is
    given; span collection iff [span_rate] is given (1.0 = every
    occasion) or [postmortem] is set.  [postmortem] attaches a flight
    recorder and arms a one-shot post-mortem dump through [reporter]
    on the first trap or reliable-channel escalation.  [reporter]
    defaults to {!Reporter.null} — embedders that want human-readable
    summaries must opt in (the CLI passes
    {!Reporter.stderr_reporter}). *)

val sampling : t -> bool

val metrics_due : t -> now:int -> bool

val metrics : t -> Metrics.t option
val spans : t -> Span.collector option
val recorder : t -> Recorder.t option
val reporter : t -> Reporter.t

val take_postmortem : t -> bool
(** True exactly once, on the first call after arming: the dump-once
    latch for the post-mortem report. *)
