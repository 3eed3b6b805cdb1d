(** Shared interpreter substrate.

    Everything the two execution engines ({!Machine}'s reference
    interpreter and the pre-decoded engine in {!Decode}) must agree on
    lives here: the trap exception, MiniC scalar semantics (including
    the defined shift behaviour), and the per-run execution state
    (function/global tables, instruction budget, output buffer).
    Keeping a single definition is what makes "bit-identical by
    construction" an honest claim for the scalar layer; the
    differential suite proves it for everything else. *)

exception Trap of string
(** Division by zero, [abort], unknown function, fuel exhausted…
    Re-exported as {!Machine.Trap}. *)

val trap : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Trap} with a formatted message. *)

type argv = AI of int | AF of float
(** A call argument / return value crossing a frame boundary. *)

type state = {
  rt : Cards_runtime.Runtime.t;
  cost : Cards_runtime.Cost.t;
  funcs : (string, Cards_ir.Func.t) Hashtbl.t;
  globals : (string, int) Hashtbl.t;
  floaty : (string, bool array) Hashtbl.t;
  mutable executed : int;
  fuel : int;
  out : Buffer.t;
  spans : Cards_obs.Span.collector option;
      (** the runtime sink's collector: both engines close a call
          during which a span was recorded as a {!Cards_obs.Span.Call}
          span *)
}
(** Per-run execution state, shared by both engines. *)

val setup : ?fuel:int -> Cards_ir.Irmod.t -> Cards_runtime.Runtime.t -> state
(** Build the function table, allocate and initialize globals.
    [fuel] bounds the executed instruction count (default unlimited). *)

val global_addr : state -> string -> int
(** Unmanaged address of a global; traps when unknown. *)

val float_regs : state -> Cards_ir.Func.t -> bool array
(** Memoized {!Cards_ir.Func.float_regs}: computed once per function
    per run, keyed by name. *)

(** {2 Scalar semantics} *)

val shl : int -> int -> int
val shr : int -> int -> int
(** MiniC shifts: the count is masked to 6 bits (mod 64).  A masked
    count of 63 — unspecified for OCaml's own 63-bit [lsl]/[asr] — is
    defined to shift every magnitude bit out: [shl _ 63 = 0],
    [shr a 63] is the sign of [a] (0 or -1). *)

val exec_ibin : Cards_ir.Instr.binop -> int -> int -> int
val exec_fbin : Cards_ir.Instr.binop -> float -> float -> float
val exec_icmp : Cards_ir.Instr.cmpop -> int -> int -> int
val exec_fcmp : Cards_ir.Instr.cmpop -> float -> float -> int

(** Decode-time variants: resolve the operator to a closure once so
    the per-execution work is an indirect call, not a match.  Trap
    behaviour (division by zero, float op in integer context) is
    preserved inside the returned closure. *)

val ibin_fn : Cards_ir.Instr.binop -> int -> int -> int
val fbin_fn : Cards_ir.Instr.binop -> float -> float -> float
val icmp_fn : Cards_ir.Instr.cmpop -> int -> int -> bool
val fcmp_fn : Cards_ir.Instr.cmpop -> float -> float -> bool
