(** Mutable function-rewriting scaffold shared by all transformation
    passes: fresh registers, block editing, block insertion, parameter
    appending — then freeze back to an immutable {!Cards_ir.Func.t}. *)

type t

val of_func : Cards_ir.Func.t -> t

val fresh_reg : t -> Cards_ir.Types.t -> Cards_ir.Instr.reg

val reg_ty : t -> Cards_ir.Instr.reg -> Cards_ir.Types.t

val nblocks : t -> int

val instrs : t -> int -> Cards_ir.Instr.instr list
val term : t -> int -> Cards_ir.Instr.term

val set_instrs : t -> int -> Cards_ir.Instr.instr list -> unit
val set_term : t -> int -> Cards_ir.Instr.term -> unit

val prepend_entry : t -> Cards_ir.Instr.instr list -> unit
(** Insert instructions at the very start of the entry block. *)

val add_block :
  t -> Cards_ir.Instr.instr list -> Cards_ir.Instr.term -> int
(** Append a new block; returns its id. *)

val add_param : t -> Cards_ir.Types.t -> Cards_ir.Instr.reg
(** Append a parameter.  Parameter registers must stay [0..arity-1],
    so this renumbers: a fresh register is allocated and returned. *)

val finish : t -> Cards_ir.Func.t
