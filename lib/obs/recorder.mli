(** The post-mortem flight recorder.

    A bounded ring of the last [capacity] completed spans, plus
    pinned retention for trouble: any span that retried, escalated,
    trapped, or absorbed a fault is pinned together with its whole
    causal chain, surviving ring eviction.  Children complete before
    their demand root (a retry span is added before the fetch it
    delayed finishes), so pinning works both ways: pinning a span
    pins any already-retained ancestors, and records the still-missing
    parent ids in a wanted-set so the ancestors are pinned on arrival.

    On a trap or a reliable-channel escalation the runtime dumps
    {!postmortem} — the flagged chain, a timeline of the last
    completed spans, and the degradation-window state — through the
    sink's {!Reporter}.  The recorder allocates nothing when absent:
    it only observes spans via the collector's listener hook, and it
    ignores marks ({!Span.is_mark}). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) bounds the ring; pinned spans are capped
    separately at 16x capacity, with {!dropped_pins} counting any
    flagged spans dropped past that. *)

val add : t -> Span.t -> unit
(** The collector-listener entry point. *)

val ring_length : t -> int
(** Completed spans currently in the ring, at most [capacity]. *)

val pinned_count : t -> int
val dropped_pins : t -> int

val flagged : t -> int
(** Spans seen that warranted pinning (retried / escalated /
    trapped / faulted). *)

val last_flagged : t -> Span.t option

val chain_of : t -> Span.t -> Span.t list
(** Root-first causal chain of a span, over retained (ring or
    pinned) spans; stops where retention ends. *)

val postmortem :
  ?reason:string -> ?degrade_level:int -> names:(int -> string) -> t ->
  string
(** Human-readable report: the most recent flagged span's chain with
    per-span phase splits, then a timeline of the last completed
    spans.  [names] maps a structure handle to its name. *)
