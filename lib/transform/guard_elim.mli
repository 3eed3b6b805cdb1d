(** Redundant guard elimination (paper §4.1).

    Two optimization levels, mirroring the two systems compared in the
    paper:

    - [Ltrackfm] — block-local elimination of syntactically identical
      guards only.  This models TrackFM, whose "optimizations … only
      apply to induction variables".
    - [Lcards] — additionally (a) dedups guards that provably target
      the same {e object} (same root pointer, offsets within one
      object-size window — "If multiple memory locations map to the
      same object, a check occurs only once"), and (b) hoists guards
      with loop-invariant addresses, including non-induction-variable
      ones, to a loop preheader.

    Both levels invalidate available guards at calls and allocation
    sites (which may evict), and at redefinitions of any register the
    guarded address depends on.  Eliminated/hoisted guards remain
    {e safe} because the runtime keeps a fault fallback for unguarded
    remote accesses (see {!Cards_interp.Machine}). *)

type level = Lnone | Ltrackfm | Lcards

val run :
  Cards_ir.Irmod.t -> Cards_analysis.Dsa.t -> level:level -> Cards_ir.Irmod.t

val removed_last_run : unit -> int
(** Number of guards removed (or hoisted out of loops) by the most
    recent [run] on the calling domain — observability for tests and
    reports. *)
