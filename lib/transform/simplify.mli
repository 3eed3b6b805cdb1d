(** Classic scalar simplifications on the IR: constant folding,
    dominance-gated copy/constant propagation, branch folding, and
    dead-code elimination.

    NOELLE-style middle-end cleanups that run before the CaRDS passes
    (fewer instructions → fewer guards to place and faster simulation).
    Semantics-preserving with two deliberate exceptions that real
    compilers share:

    - division/remainder by a {e constant} zero is never folded (the
      trap must survive);
    - loads whose results are unused are deleted — program outputs are
      unchanged, but the runtime sees fewer accesses (that is the
      point of an optimizer).

    Off by default in {!Cards.Pipeline} ({!Cards.Pipeline.options});
    the differential fuzz suite checks output equivalence. *)

val run_func : Cards_ir.Func.t -> Cards_ir.Func.t
(** Iterate fold → propagate → branch-fold → DCE to a fixpoint. *)

val run : Cards_ir.Irmod.t -> Cards_ir.Irmod.t
(** Simplify every function; the result verifies. *)

val removed_last_run : unit -> int
(** Instructions deleted by the most recent [run] on the calling
    domain. *)
