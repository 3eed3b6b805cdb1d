(** The pre-decoded execution engine, as threaded code.

    [prepare] compiles every instruction of a module, at load time,
    into one specialized closure that does its work and then tail-calls
    the closure of the next instruction; a terminator tail-calls its
    target block's entry.  Operand float-ness is resolved from
    [reg_tys], cost constants are baked in, immediates converted from
    [Int64] once, callees linked to direct decoded-function references
    with pre-built argument movers, and the access site
    ({!Cards_runtime.Runtime.site}) written inline only on
    runtime-entering opcodes.  A call takes its callee's frame from a
    per-function frame stack held in {!t}, so calls allocate nothing.
    Heap accesses go through the runtime's one access path, the one
    {!Machine}'s reference interpreter takes.

    Semantics — output, traps, simulated cycles, runtime stats, stall
    attribution — are bit-identical to {!Machine}'s reference
    interpreter; the differential suite enforces this across the fuzz
    matrix.  Traps are raised at execution time, never at decode time:
    decoding a module with dead ill-typed code or unknown callees
    succeeds, exactly as the reference tolerates it. *)

type t
(** A decoded module, bound to the {!Sem.state} it was prepared with
    (globals are resolved against that state's heap).  It holds each
    function's frame stack, which keeps as many frames as the
    function's deepest recursion reached, for as long as [t] lives. *)

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
