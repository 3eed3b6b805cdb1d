(** What the runtime observes besides its stalls.

    The interpreter's instruction charges feed one global compute
    counter; every other cycle of the run is a stall, charged once to
    the {!Attribution} ledger.  The runtime writes its clock only
    through those two charges, so

    {[ compute + Attribution.total = Runtime.now ]}

    holds by construction.  Neither counter ever touches the clock, so
    observed and unobserved runs report identical cycle counts.

    Per data structure (handle [0] = unmanaged segment) it also keeps
    the fetch-latency distribution (demand-fault stalls and late-
    prefetch waits) in a bounded-memory log-bucket histogram
    ({!Cards_util.Stats}), so p50/p90/p99/p999 tail latency is
    answerable per structure without retaining samples, and the
    informational [p_hidden] estimate.  [Export.profile_table] renders
    these next to a per-structure view of the ledger. *)

type buckets = {
  mutable p_hidden : int;
      (** {e informational}, not wall-clock: fetch latency hidden by
          timely prefetches (what demand faults would have cost) *)
  lat : Cards_util.Stats.t;  (** fetch-latency distribution *)
}

type per
(** The per-structure records, keyed by handle. *)

type t = {
  per : per;
  mutable p_compute : int;
      (** compute cycles; {!compute} reads it.  Exposed so the
          interpreters' per-instruction charge is an in-place add:
          under dune's default dev profile every module is compiled
          [-opaque], so a call into this module is never inlined. *)
}

val create : unit -> t

val buckets : t -> int -> buckets
(** Per-structure record for a handle, auto-created. *)

val compute : t -> int

val hidden : t -> int -> int
(** A handle's [p_hidden], [0] for a handle never seen. *)

val handles : t -> int list

val record_latency : buckets -> int -> unit
(** Add one fetch latency (cycles) to the handle's distribution. *)

val latency : buckets -> Cards_util.Stats.t
(** One handle's fetch-latency distribution (percentiles, count). *)

val merged_latency : t -> Cards_util.Stats.t
(** The latency distribution merged over all handles (bucket-wise). *)

val merged_hist : t -> int array
(** Octave (log₂) view of {!merged_latency}: bucket [i] counts
    latencies in [2^i, 2^(i+1)).  Length
    {!Cards_util.Stats.log2_buckets}. *)
