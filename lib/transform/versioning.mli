(** Code versioning for selective remoting (paper §4.1, Listing 3).

    CaRDS keeps two versions of hot code: one instrumented with guards
    and one clean.  Before entering a loop, a runtime check
    ([LoopCheck], the paper's [cards_check_ds]) asks whether every data
    structure the loop may touch is currently localized; if so,
    execution branches to the uninstrumented copy.

    A loop is {e versionable} when the compiler can enumerate the data
    structures it may touch via loop-invariant base pointers:

    - every managed access in the loop must belong to a DSA node for
      which some loop-invariant pointer value exists (the runtime
      extracts the data-structure id from that pointer's non-canonical
      bits);
    - callees reached from the loop must not allocate (an allocation
      could demote a checked structure mid-loop) and must not touch
      callee-internal structures invisible to the caller;
    - the loop itself must not allocate.

    Calls inside the clean copy are redirected to clean callee versions
    ([<name>__clean]), which are generated for every guard-bearing,
    allocation-free function. *)

val clean_suffix : string
(** ["__clean"]. *)

val run : Cards_ir.Irmod.t -> Cards_analysis.Dsa.t -> Cards_ir.Irmod.t
(** [dsa] must describe exactly this module (post guard insertion /
    elimination). *)

val versioned_loops_last_run : unit -> int
(** How many loops received a clean copy in the most recent [run] on
    the calling domain. *)
