(** IR interpreter / cycle-accurate-enough simulator.

    Executes a (possibly CaRDS-transformed) IR module against a
    {!Cards_runtime.Runtime}: plain instructions charge per-class CPU
    costs, memory instructions go through the runtime's heap (which
    charges guard, fault, and network costs), and the result carries
    the final cycle count every experiment reports.

    Two execution engines produce that result:

    - {!Decoded} (the default): the pre-decoded engine in {!Decode} —
      each instruction is compiled at load time into one specialized
      closure that tail-calls the next (static decisions taken once:
      operand float-ness, cost constants, immediate conversion, direct
      callee references with pre-built argument movers), and call
      frames are reused from per-function stacks.
    - {!Reference}: the straightforward tree-walking interpreter kept
      as the oracle.

    Both engines are bit-identical — same output, traps, simulated
    cycles, runtime stats, and stall attribution — which the
    differential suite asserts across the fuzz matrix.

    Integer and pointer registers are native ints (tagged pointers fit
    in 63 bits); float registers live in an unboxed [float array].

    Functional correctness is independent of the far-memory
    configuration — a property the test suite checks by running every
    workload under multiple policies and comparing outputs. *)

type result = {
  ret : int;               (** main's return value (0 for void) *)
  cycles : int;            (** simulated execution time *)
  instructions : int;      (** IR instructions executed *)
  output : string list;    (** print_int / print_float lines, in order *)
}

exception Trap of string
(** Division by zero, [abort], unknown function, fuel exhausted… *)

type engine = Reference | Decoded

val run :
  ?fuel:int ->
  ?engine:engine ->
  Cards_ir.Irmod.t ->
  Cards_runtime.Runtime.t ->
  result
(** Execute [main].  [fuel] bounds the executed instruction count
    (default: unlimited); [engine] selects the execution engine
    (default {!Decoded}). *)

val run_function :
  ?fuel:int ->
  ?engine:engine ->
  Cards_ir.Irmod.t ->
  Cards_runtime.Runtime.t ->
  string ->
  int list ->
  result
(** Execute an arbitrary function with integer/pointer arguments
    (testing hook). *)

(** {2 Sessions}

    [run]/[run_function] re-run global setup on every invocation, so
    each call starts from a fresh program state.  A {!session} performs
    setup (and, for the decoded engine, pre-decoding) once and keeps
    the heap live across calls — the request-serving model: a tenant's
    data structures persist while queries arrive one at a time. *)

type session

val session :
  ?fuel:int ->
  ?engine:engine ->
  Cards_ir.Irmod.t ->
  Cards_runtime.Runtime.t ->
  session
(** Allocate and initialize the module's globals against [rt] and bind
    the execution engine (default {!Decoded}).  [fuel] bounds the total
    instruction count across {e all} calls on the session. *)

val call : session -> string -> int list -> result
(** Execute a named function against the session's live heap.  Unlike
    {!run_function}, the result's [cycles], [instructions], and
    [output] are {e deltas}: what this call alone added on top of the
    session's prior history. *)
