(** Induction-variable and strided-access analysis.

    This is the analysis that TrackFM-style prefetching relies on
    exclusively (§5.2: "TrackFM relies only on induction variables for
    prefetching"), and one ingredient of CaRDS's per-data-structure
    prefetch classification.

    A {e basic induction variable} is a register with exactly one
    update inside the loop, of the form [iv <- iv + c] (directly, or
    via the lowered [t <- iv + c; iv <- t] pattern).  A {e strided
    access} is a load/store through [gep base, iv x scale] where [base]
    is loop-invariant. *)

type iv = { ivreg : Cards_ir.Instr.reg; step : int }

type strided_access = {
  sa_bid : int;                 (** block containing the access *)
  sa_idx : int;                 (** instruction index in the block *)
  sa_base : Cards_ir.Instr.value;  (** loop-invariant base pointer *)
  sa_stride : int;              (** bytes advanced per iteration *)
  sa_is_store : bool;
}

type t

val compute : Cfg.t -> Loops.t -> t

val basic_ivs : t -> int -> iv list
(** Basic induction variables of loop [li]. *)

val strided_accesses : t -> int -> strided_access list
(** Strided memory accesses of loop [li]. *)

val loop_invariant : Cfg.t -> Loops.loop -> Cards_ir.Instr.value -> bool
(** Conservative loop-invariance: immediates, globals' addresses, and
    registers with no definition inside the loop. *)
