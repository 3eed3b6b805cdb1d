(** The pre-decoded execution engine.

    [prepare] compiles every function of a module, at load time, into
    flat arrays of specialized closures: operand float-ness resolved
    from [reg_tys], cost constants baked in, immediates converted from
    [Int64] once, callees linked to direct decoded-function references
    with pre-built argument movers, [Runtime.set_site] pre-bound only
    on runtime-entering opcodes.  Heap accesses go through the
    runtime's one access path, the one {!Machine}'s reference
    interpreter takes.

    Semantics — output, traps, simulated cycles, runtime stats, stall
    attribution — are bit-identical to {!Machine}'s reference
    interpreter; the differential suite enforces this across the fuzz
    matrix.  Traps are raised at execution time, never at decode time:
    decoding a module with dead ill-typed code or unknown callees
    succeeds, exactly as the reference tolerates it. *)

type t
(** A decoded module, bound to the {!Sem.state} it was prepared with
    (globals are resolved against that state's heap). *)

val prepare : Sem.state -> Cards_ir.Irmod.t -> t
(** Decode every function.  Callees resolve across the whole module,
    including forward references and mutual recursion; duplicate
    function names resolve to the last definition, as in the
    reference's function table. *)

val run_main : t -> Sem.argv
(** Execute [main] with no arguments.  @raise Sem.Trap as the
    reference engine would, including "module has no main". *)

val run_function : t -> string -> Sem.argv list -> Sem.argv
(** Execute a named function.  @raise Sem.Trap on unknown names
    ("no function %s") and arity mismatches. *)
