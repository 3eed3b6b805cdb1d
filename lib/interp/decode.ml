(* The pre-decoded execution engine, as threaded code.

   The reference interpreter in machine.ml re-decides everything on
   every instruction: operand-kind matches, float-ness checks that are
   static in [reg_tys], a hash lookup plus two list maps per call, a
   site-stamp match before every instruction.  This engine follows the
   compiler's own rule — take every static decision once, off the hot
   path: at load time each instruction is compiled into one closure
   with

     - int vs float operand reads resolved from [reg_tys] (via the
       memoized float-ness bitmap in {!Sem}),
     - cost constants ([alu]/[mul_div]/[branch]/[call]) baked in,
     - [Imm] converted from [Int64] once,
     - callees resolved to direct decoded-function references with
       pre-built argument movers (no per-call list allocation),
     - the access site written inline, three field stores into the
       runtime's [Runtime.site] record, only on the runtime-entering
       opcodes (the reference interpreter matches on every one),
     - float loads, stores, moves and arithmetic on float registers
       (and float constants) reading and writing the float register
       file directly: a [frame -> float] reader boxes every float it
       returns, since nothing here is compiled with flambda,
     - the per-instruction charge compiled to two in-place adds on
       record fields bound once at decode time ([tick]), not a call,
     - the closure of the next instruction.

   Execution is threaded: each closure counts its instruction, checks
   the fuel, does its work and tail-calls its successor as its last
   action; a block's terminator tail-calls the entry of its target
   block.  No handler surrounds those calls and nothing follows them,
   so loops and long blocks run in constant OCaml stack, and only
   interpreted calls nest.  A call takes its callee's frame from that
   function's frame stack in the session's [t] and returns a float
   through an unboxed slot, so a call allocates nothing.

   Heap accesses call the runtime's one access path
   ([Runtime.read_i64] & friends), the one the reference interpreter
   calls too, so both engines share every line of residency, fault and
   prefetch bookkeeping.

   Semantics are the reference interpreter's, bit for bit: same trap
   messages raised at the same execution points (never at decode
   time — dead code containing an ill-typed operand or an unknown
   callee must stay inert, exactly as it does under the reference),
   same instruction count and fuel check per instruction (terminators
   uncounted), same charge order, same simulated cycles, same stats and
   attribution.  test_differential proves this across the whole
   fuzz x qp x batching x fault-rate matrix. *)

module Instr = Cards_ir.Instr
module Func = Cards_ir.Func
module Types = Cards_ir.Types
module Irmod = Cards_ir.Irmod
module Runtime = Cards_runtime.Runtime
module Span = Cards_obs.Span
module Profile = Cards_obs.Profile

open Sem

(* Register files are split as in the reference interpreter.  A frame
   hands its return value back without allocating: an integer in
   [ret_i], a float in the last slot of [floats] (index [nregs]). *)
type frame = {
  ints : int array;     (* nregs slots *)
  floats : float array; (* nregs + 1 slots *)
  mutable ret_i : int;
}

(* An instruction's closure: its work, then its successor.  The chain
   of a frame ends at a [Ret], which returns [ret_int] when the frame
   returned an integer (in [ret_i]) or [ret_flt] when it returned a
   float (in the float slot).  The distinction is dynamic because the
   reference interpreter's [Ret None] yields integer 0 even in a
   float-returning function. *)
type code = frame -> int

let ret_int = -1
let ret_flt = -2

(* A block's entry, set once every block of its function is decoded,
   so branches — back edges included — jump through it. *)
type label = { mutable run : code }

type dfunc = {
  fname : string;                       (* physically f.name: the
                                           attribution ledger compares
                                           site strings by identity *)
  nregs : int;
  params : (Instr.reg * Types.t) list;
  mutable entry : code;                 (* set in the second pass so
                                           mutually recursive calls
                                           resolve directly *)
  (* The frame stack: [frames.(d)] serves the activation at depth [d]
     and [depth] activations are live.  Frames are reused, never
     freed, so a function keeps as many as its deepest recursion
     reached. *)
  mutable frames : frame array;
  mutable depth : int;
}

type t = { st : state; table : (string, dfunc) Hashtbl.t }

(* What an instruction's closure binds from its function and session.
   Each closure binds the fields it needs itself, not the record. *)
type ctx = {
  cs : state;
  fl : bool array;          (* register float-ness *)
  clk : Runtime.clock;
  pr : Profile.t;
  site : Runtime.site;
  exhausted : exn;          (* the trap of running out of fuel *)
  fn : string;              (* physically f.name *)
  rslot : int;              (* the float return slot: [nregs] *)
  callees : (string, dfunc) Hashtbl.t;
}

(* The per-instruction charge: exactly [Runtime.charge], written as two
   in-place adds on the clock and the profile's compute counter.  Dune's
   default dev profile compiles every module [-opaque], so a call into
   [Runtime] is never inlined; this is.  Since [tick] adds the same
   cost to both, compute + ledger = now still holds by construction. *)
let[@inline] tick (clk : Runtime.clock) (pr : Profile.t) c =
  clk.cycles <- clk.cycles + c;
  pr.p_compute <- pr.p_compute + c

(* The reference interpreter's per-instruction count and fuel check.
   The trap is built once per session ([exhausted]): raising a value
   calls nothing, so an instruction whose work calls nothing either
   needs no stack frame and spills nothing before its tail call. *)
let[@inline] count st exhausted =
  let n = st.executed + 1 in
  st.executed <- n;
  if n > st.fuel then raise exhausted

(* The access site, written inline before an instruction that enters
   the runtime.  [fn] is one string per function, so the name is
   stored — through the write barrier — only when the function
   changes. *)
let[@inline] stamp (s : Runtime.site) fn block instr =
  if s.site_fn != fn then s.site_fn <- fn;
  s.site_block <- block;
  s.site_instr <- instr

(* ---------- frame stacks ---------- *)

let fresh_frame nregs =
  { ints = Array.make nregs 0; floats = Array.make (nregs + 1) 0.0;
    ret_i = 0 }

(* Room for one more activation.  Every new slot gets a frame of its
   own: two slots sharing one would let a recursive call overwrite its
   caller's registers. *)
let grow df =
  let old = df.frames in
  let n = Array.length old in
  df.frames <-
    Array.init (max 1 (2 * n)) (fun i ->
        if i < n then old.(i) else fresh_frame df.nregs)

(* Take the next frame of [df]'s stack, zeroed as a fresh one would
   be: the reference engine starts every register at zero. *)
let[@inline] push df =
  let d = df.depth in
  if d = Array.length df.frames then grow df;
  let fr = Array.unsafe_get df.frames d in
  df.depth <- d + 1;
  let ints = fr.ints and floats = fr.floats in
  for i = 0 to Array.length ints - 1 do
    Array.unsafe_set ints i 0
  done;
  for i = 0 to Array.length floats - 1 do
    Array.unsafe_set floats i 0.0
  done;
  fr

let[@inline] pop df = df.depth <- df.depth - 1

(* Run a frame from its function's entry, with the Call span exactly
   as the reference engine records it: with spans off the hook is one
   test of a cached field. *)
let exec st df fr =
  match st.spans with
  | None -> df.entry fr
  | Some c ->
    let since = Span.length c and issued = Runtime.now st.rt in
    let code = df.entry fr in
    Span.call c ~since ~fn:df.fname ~issued ~complete:(Runtime.now st.rt);
    code

(* ---------- operand decoding ---------- *)

let int_rd st v : frame -> int =
  match (v : Instr.value) with
  | Instr.Reg r -> fun fr -> fr.ints.(r)
  | Instr.Imm i ->
    let c = Int64.to_int i in
    fun _ -> c
  | Instr.Null -> fun _ -> 0
  | Instr.GlobalAddr g -> (
    match Hashtbl.find_opt st.globals g with
    | Some a -> fun _ -> a
    | None -> fun _ -> trap "unknown global @%s" g)
  | Instr.Fimm _ -> fun _ -> trap "float immediate in integer context"

let float_rd st (fl : bool array) v : frame -> float =
  match (v : Instr.value) with
  | Instr.Reg r ->
    if fl.(r) then fun fr -> fr.floats.(r)
    else fun fr -> float_of_int fr.ints.(r)
  | Instr.Fimm x -> fun _ -> x
  | Instr.Imm i ->
    let c = Int64.to_float i in
    fun _ -> c
  | Instr.Null -> fun _ -> 0.0
  | Instr.GlobalAddr g -> (
    match Hashtbl.find_opt st.globals g with
    | Some a ->
      let c = float_of_int a in
      fun _ -> c
    | None -> fun _ -> trap "unknown global @%s" g)

let floaty (fl : bool array) v =
  match (v : Instr.value) with
  | Instr.Fimm _ -> true
  | Instr.Reg r -> fl.(r)
  | Instr.Imm _ | Instr.Null | Instr.GlobalAddr _ -> false

(* A float operand whose value needs no reader call: a float register,
   or a constant (folded exactly as [float_rd] converts it).  [Fother]
   — an integer register, an unknown global — keeps the reader. *)
type fsrc = Freg of int | Fconst of float | Fother

let fsrc st (fl : bool array) v =
  match (v : Instr.value) with
  | Instr.Reg r -> if fl.(r) then Freg r else Fother
  | Instr.Fimm x -> Fconst x
  | Instr.Imm i -> Fconst (Int64.to_float i)
  | Instr.Null -> Fconst 0.0
  | Instr.GlobalAddr g -> (
    match Hashtbl.find_opt st.globals g with
    | Some a -> Fconst (float_of_int a)
    | None -> Fother)

(* ---------- instruction decoding ----------

   Every closure below opens with [count] and ends by calling [next];
   a closure that traps instead never reaches it. *)

(* Integer binops: the hot loop shapes (reg op reg, reg op imm) get
   dedicated closures with no operand indirection at all; everything
   else pays two reader calls plus the resolved operator. *)
let dec_ibin cx r op a b next : code =
  let st = cx.cs and ex = cx.exhausted and clk = cx.clk and pr = cx.pr in
  let c =
    match (op : Instr.binop) with
    | Mul | Div | Rem -> st.cost.mul_div
    | _ -> st.cost.alu
  in
  match (op : Instr.binop), (a : Instr.value), (b : Instr.value) with
  | Add, Reg x, Reg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- fr.ints.(x) + fr.ints.(y);
      next fr
  | Add, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- fr.ints.(x) + k;
      next fr
  | Sub, Reg x, Reg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- fr.ints.(x) - fr.ints.(y);
      next fr
  | Sub, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- fr.ints.(x) - k;
      next fr
  | Mul, Reg x, Reg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- fr.ints.(x) * fr.ints.(y);
      next fr
  | Mul, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- fr.ints.(x) * k;
      next fr
  | And, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- fr.ints.(x) land k;
      next fr
  | _ ->
    let fa = int_rd st a and fb = int_rd st b in
    let opf = ibin_fn op in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- opf (fa fr) (fb fr);
      next fr

let dec_icmp cx r cop a b next : code =
  let st = cx.cs and ex = cx.exhausted and clk = cx.clk and pr = cx.pr in
  let c = st.cost.alu in
  match (cop : Instr.cmpop), (a : Instr.value), (b : Instr.value) with
  | Lt, Reg x, Reg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- (if fr.ints.(x) < fr.ints.(y) then 1 else 0);
      next fr
  | Lt, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- (if fr.ints.(x) < k then 1 else 0);
      next fr
  | Eq, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- (if fr.ints.(x) = k then 1 else 0);
      next fr
  | _ ->
    let fa = int_rd st a and fb = int_rd st b in
    let opf = icmp_fn cop in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- (if opf (fa fr) (fb fr) then 1 else 0);
      next fr

(* Float binops on float registers and constants compute in place; the
   operator is spelled out per shape because passing it as a closure
   would box both operands and the result. *)
let dec_fbin cx r op a b next : code =
  let st = cx.cs and fl = cx.fl and ex = cx.exhausted in
  let clk = cx.clk and pr = cx.pr in
  let c = st.cost.alu in
  match (op : Instr.binop), fsrc st fl a, fsrc st fl b with
  | Fadd, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- fr.floats.(x) +. fr.floats.(y);
      next fr
  | Fsub, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- fr.floats.(x) -. fr.floats.(y);
      next fr
  | Fmul, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- fr.floats.(x) *. fr.floats.(y);
      next fr
  | Fdiv, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- fr.floats.(x) /. fr.floats.(y);
      next fr
  | Fadd, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- fr.floats.(x) +. k;
      next fr
  | Fsub, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- fr.floats.(x) -. k;
      next fr
  | Fmul, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- fr.floats.(x) *. k;
      next fr
  | Fdiv, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- fr.floats.(x) /. k;
      next fr
  | Fadd, Fconst k, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- k +. fr.floats.(y);
      next fr
  | Fsub, Fconst k, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- k -. fr.floats.(y);
      next fr
  | Fmul, Fconst k, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- k *. fr.floats.(y);
      next fr
  | Fdiv, Fconst k, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- k /. fr.floats.(y);
      next fr
  | _ ->
    let fa = float_rd st fl a and fb = float_rd st fl b in
    let opf = fbin_fn op in
    fun fr ->
      count st ex; tick clk pr c;
      fr.floats.(r) <- opf (fa fr) (fb fr);
      next fr

(* Float compares: a float register against a float register or a
   constant, in place. *)
let dec_fcmp cx r cop a b next : code =
  let st = cx.cs and fl = cx.fl and ex = cx.exhausted in
  let clk = cx.clk and pr = cx.pr in
  let c = st.cost.alu in
  match (cop : Instr.cmpop), fsrc st fl a, fsrc st fl b with
  | Eq, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) = fr.floats.(y));
      next fr
  | Ne, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) <> fr.floats.(y));
      next fr
  | Lt, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) < fr.floats.(y));
      next fr
  | Le, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) <= fr.floats.(y));
      next fr
  | Gt, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) > fr.floats.(y));
      next fr
  | Ge, Freg x, Freg y ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) >= fr.floats.(y));
      next fr
  | Eq, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) = k);
      next fr
  | Ne, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) <> k);
      next fr
  | Lt, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) < k);
      next fr
  | Le, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) <= k);
      next fr
  | Gt, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) > k);
      next fr
  | Ge, Freg x, Fconst k ->
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) >= k);
      next fr
  | _ ->
    let fa = float_rd st fl a and fb = float_rd st fl b in
    let opf = fcmp_fn cop in
    fun fr ->
      count st ex; tick clk pr c;
      fr.ints.(r) <- Bool.to_int (opf (fa fr) (fb fr));
      next fr

(* A call's first half: count and charge it, take the callee's frame
   off its stack and move the arguments in.  A trap unwinding through
   the call leaves the stack to [unwind]. *)
let[@inline] call_frame st ex clk pr c df
    (movers : (frame -> frame -> unit) array) fr =
  count st ex; tick clk pr c;
  let cf = push df in
  for i = 0 to Array.length movers - 1 do
    (Array.unsafe_get movers i) fr cf
  done;
  cf

let dec_call cx (ropt : Instr.reg option) name args next : code =
  let st = cx.cs and fl = cx.fl and ex = cx.exhausted in
  let clk = cx.clk and pr = cx.pr in
  let c = st.cost.call in
  match name with
  | "print_int" -> (
    match args with
    | a0 :: _ ->
      let rd = int_rd st a0 in
      fun fr ->
        count st ex; tick clk pr c;
        Buffer.add_string st.out (string_of_int (rd fr));
        Buffer.add_char st.out '\n';
        next fr
    | [] -> fun _ -> count st ex; tick clk pr c; failwith "hd")
  | "print_float" -> (
    match args with
    | a0 :: _ ->
      let rd = float_rd st fl a0 in
      fun fr ->
        count st ex; tick clk pr c;
        Buffer.add_string st.out (Printf.sprintf "%.6g" (rd fr));
        Buffer.add_char st.out '\n';
        next fr
    | [] -> fun _ -> count st ex; tick clk pr c; failwith "hd")
  | "clock" -> (
    match ropt with
    | Some r ->
      fun fr ->
        count st ex; tick clk pr c;
        fr.ints.(r) <- clk.cycles;
        next fr
    | None -> fun fr -> count st ex; tick clk pr c; next fr)
  | "abort" -> fun _ -> count st ex; tick clk pr c; trap "abort() called"
  | _ -> (
    match Hashtbl.find_opt cx.callees name with
    | None ->
      fun _ ->
        count st ex; tick clk pr c;
        trap "call to unknown function %s" name
    | Some df when List.length df.params <> List.length args ->
      (* The reference's [List.map2] evaluates argument operands for
         the common prefix before noticing the length mismatch, so an
         ill-typed early argument traps first.  Reproduce that. *)
      let rec prefix ps vs =
        match ps, vs with
        | (_, ty) :: ps', v :: vs' ->
          (match (ty : Types.t) with
           | Types.F64 ->
             let rd = float_rd st fl v in
             (fun fr -> ignore (rd fr)) :: prefix ps' vs'
           | _ ->
             let rd = int_rd st v in
             (fun fr -> ignore (rd fr)) :: prefix ps' vs')
        | _ -> []
      in
      let evals = Array.of_list (prefix df.params args) in
      fun fr ->
        count st ex; tick clk pr c;
        Array.iter (fun e -> e fr) evals;
        trap "arity mismatch calling %s" name
    | Some df ->
      (* Argument movers: one closure per parameter, reading from the
         caller frame and writing the callee register directly — the
         reference's per-call [List.map2] + argv list disappears. *)
      let movers =
        Array.of_list
          (List.map2
             (fun (p, ty) v ->
               match (ty : Types.t) with
               | Types.F64 -> (
                 match fsrc st fl v with
                 | Freg x -> fun fr cf -> cf.floats.(p) <- fr.floats.(x)
                 | Fconst k -> fun _ cf -> cf.floats.(p) <- k
                 | Fother ->
                   let rd = float_rd st fl v in
                   fun fr cf -> cf.floats.(p) <- rd fr)
               | _ ->
                 let rd = int_rd st v in
                 fun fr cf -> cf.ints.(p) <- rd fr)
             df.params args)
      in
      let rs = df.nregs in
      match ropt with
      | None ->
        fun fr ->
          let cf = call_frame st ex clk pr c df movers fr in
          ignore (exec st df cf);
          pop df;
          next fr
      | Some r when fl.(r) ->
        fun fr ->
          let cf = call_frame st ex clk pr c df movers fr in
          let code = exec st df cf in
          fr.floats.(r) <-
            (if code = ret_flt then cf.floats.(rs)
             else float_of_int cf.ret_i);
          pop df;
          next fr
      | Some r ->
        fun fr ->
          let cf = call_frame st ex clk pr c df movers fr in
          let code = exec st df cf in
          fr.ints.(r) <-
            (if code = ret_flt then int_of_float cf.floats.(rs)
             else cf.ret_i);
          pop df;
          next fr)

let dec_instr cx ~bid ~idx (ins : Instr.instr) next : code =
  let st = cx.cs and fl = cx.fl and ex = cx.exhausted in
  let rt = st.rt and clk = cx.clk and pr = cx.pr in
  let site = cx.site and fn = cx.fn in
  (* The site is written only on the opcodes that can enter the
     runtime, mirroring the reference interpreter's stamp match — but
     resolved at decode time instead of per instruction. *)
  match ins with
  | Instr.Bin (r, op, a, b) ->
    if Instr.is_float_binop op then dec_fbin cx r op a b next
    else dec_ibin cx r op a b next
  | Instr.Cmp (r, cop, a, b) ->
    if floaty fl a || floaty fl b then dec_fcmp cx r cop a b next
    else dec_icmp cx r cop a b next
  | Instr.Mov (r, v) ->
    let c = st.cost.alu in
    if fl.(r) then begin
      match fsrc st fl v with
      | Freg x ->
        fun fr ->
          count st ex; tick clk pr c;
          fr.floats.(r) <- fr.floats.(x);
          next fr
      | Fconst k ->
        fun fr ->
          count st ex; tick clk pr c;
          fr.floats.(r) <- k;
          next fr
      | Fother ->
        let rd = float_rd st fl v in
        fun fr ->
          count st ex; tick clk pr c;
          fr.floats.(r) <- rd fr;
          next fr
    end
    else begin
      match (v : Instr.value) with
      | Instr.Reg x ->
        fun fr ->
          count st ex; tick clk pr c;
          fr.ints.(r) <- fr.ints.(x);
          next fr
      | Instr.Imm i ->
        let k = Int64.to_int i in
        fun fr ->
          count st ex; tick clk pr c;
          fr.ints.(r) <- k;
          next fr
      | _ ->
        let rd = int_rd st v in
        fun fr ->
          count st ex; tick clk pr c;
          fr.ints.(r) <- rd fr;
          next fr
    end
  | Instr.I2f (r, v) -> (
    let c = st.cost.alu in
    match (v : Instr.value) with
    | Instr.Reg x ->
      fun fr ->
        count st ex; tick clk pr c;
        fr.floats.(r) <- float_of_int fr.ints.(x);
        next fr
    | _ ->
      let rd = int_rd st v in
      fun fr ->
        count st ex; tick clk pr c;
        fr.floats.(r) <- float_of_int (rd fr);
        next fr)
  | Instr.F2i (r, v) -> (
    let c = st.cost.alu in
    match fsrc st fl v with
    | Freg x ->
      fun fr ->
        count st ex; tick clk pr c;
        fr.ints.(r) <- int_of_float fr.floats.(x);
        next fr
    | _ ->
      let rd = float_rd st fl v in
      fun fr ->
        count st ex; tick clk pr c;
        fr.ints.(r) <- int_of_float (rd fr);
        next fr)
  | Instr.Load (r, ty, addr) -> (
    let f64 = Types.equal ty Types.F64 in
    match (addr : Instr.value) with
    | Instr.Reg x ->
      if f64 then
        fun fr ->
          count st ex; stamp site fn bid idx;
          Runtime.read_f64_into rt fr.ints.(x) fr.floats r;
          next fr
      else
        fun fr ->
          count st ex; stamp site fn bid idx;
          fr.ints.(r) <- Runtime.read_i64 rt fr.ints.(x);
          next fr
    | _ ->
      let rd = int_rd st addr in
      if f64 then
        fun fr ->
          count st ex; stamp site fn bid idx;
          Runtime.read_f64_into rt (rd fr) fr.floats r;
          next fr
      else
        fun fr ->
          count st ex; stamp site fn bid idx;
          fr.ints.(r) <- Runtime.read_i64 rt (rd fr);
          next fr)
  | Instr.Store (ty, addr, v) ->
    let ra = int_rd st addr in
    if Types.equal ty Types.F64 then begin
      match fsrc st fl v with
      | Freg x ->
        fun fr ->
          count st ex; stamp site fn bid idx;
          Runtime.write_f64_from rt (ra fr) fr.floats x;
          next fr
      | _ ->
        (* Any other operand shape: the value is not in a float
           register, so it is read and stored as a float. *)
        let rv = float_rd st fl v in
        fun fr ->
          count st ex; stamp site fn bid idx;
          let a = ra fr in
          Runtime.write_f64 rt a (rv fr);
          next fr
    end
    else begin
      match (addr : Instr.value), (v : Instr.value) with
      | Instr.Reg x, Instr.Reg y ->
        fun fr ->
          count st ex; stamp site fn bid idx;
          Runtime.write_i64 rt fr.ints.(x) fr.ints.(y);
          next fr
      | _ ->
        let rv = int_rd st v in
        fun fr ->
          count st ex; stamp site fn bid idx;
          let a = ra fr in
          Runtime.write_i64 rt a (rv fr);
          next fr
    end
  | Instr.Gep (r, base, idx_v, scale) -> (
    let c = st.cost.alu in
    match (base : Instr.value), (idx_v : Instr.value) with
    | Instr.Reg x, Instr.Reg y ->
      fun fr ->
        count st ex; tick clk pr c;
        fr.ints.(r) <- fr.ints.(x) + (fr.ints.(y) * scale);
        next fr
    | _ ->
      let rb = int_rd st base and ri = int_rd st idx_v in
      fun fr ->
        count st ex; tick clk pr c;
        fr.ints.(r) <- rb fr + (ri fr * scale);
        next fr)
  | Instr.Malloc (r, size) ->
    let rs = int_rd st size in
    fun fr ->
      count st ex; stamp site fn bid idx;
      fr.ints.(r) <- Runtime.ds_alloc rt ~handle:0 ~size:(rs fr);
      next fr
  | Instr.Free v ->
    let rd = int_rd st v in
    fun fr ->
      count st ex;
      Runtime.free rt (rd fr);
      next fr
  | Instr.Guard (k, addr) -> (
    let write = k = Instr.Gwrite in
    match (addr : Instr.value) with
    | Instr.Reg x ->
      fun fr ->
        count st ex; stamp site fn bid idx;
        Runtime.guard rt ~write fr.ints.(x);
        next fr
    | _ ->
      let rd = int_rd st addr in
      fun fr ->
        count st ex; stamp site fn bid idx;
        Runtime.guard rt ~write (rd fr);
        next fr)
  | Instr.DsInit (r, sid) ->
    fun fr ->
      count st ex; stamp site fn bid idx;
      fr.ints.(r) <- Runtime.ds_init rt ~sid;
      next fr
  | Instr.DsAlloc (r, size, h) ->
    let rh = int_rd st h and rs = int_rd st size in
    fun fr ->
      count st ex; stamp site fn bid idx;
      fr.ints.(r) <- Runtime.ds_alloc rt ~handle:(rh fr) ~size:(rs fr);
      next fr
  | Instr.LoopCheck (r, bases) ->
    let rds = Array.of_list (List.map (int_rd st) bases) in
    let n = Array.length rds in
    fun fr ->
      count st ex; stamp site fn bid idx;
      (* left-to-right, as the reference's [List.map] evaluates *)
      let rec build i = if i = n then [] else rds.(i) fr :: build (i + 1) in
      fr.ints.(r) <- (if Runtime.loop_check rt (build 0) then 1 else 0);
      next fr
  | Instr.Prefetch _ ->
    let c = st.cost.alu in
    fun fr -> count st ex; tick clk pr c; next fr
  | Instr.Call (ropt, name, args) -> dec_call cx ropt name args next

(* A branch target's label.  A target outside the function fails when
   the branch runs, as the reference's block lookup does. *)
let label labels target =
  if target >= 0 && target < Array.length labels then labels.(target)
  else { run = (fun _ -> invalid_arg "index out of bounds") }

let dec_term cx labels (f : Func.t) ~bid (term : Instr.term) : code =
  let st = cx.cs and fl = cx.fl and clk = cx.clk and pr = cx.pr in
  let rs = cx.rslot in
  match term with
  | Instr.Br target ->
    let c = st.cost.branch and l = label labels target in
    fun fr -> tick clk pr c; l.run fr
  | Instr.Cbr (v, bt, bf) ->
    let c = st.cost.branch in
    let lt = label labels bt and lf = label labels bf in
    if floaty fl v then begin
      match fsrc st fl v with
      | Freg x ->
        fun fr ->
          tick clk pr c;
          if fr.floats.(x) <> 0.0 then lt.run fr else lf.run fr
      | _ ->
        let rd = float_rd st fl v in
        fun fr ->
          tick clk pr c;
          if rd fr <> 0.0 then lt.run fr else lf.run fr
    end
    else begin
      match (v : Instr.value) with
      | Instr.Reg r ->
        fun fr ->
          tick clk pr c;
          if fr.ints.(r) <> 0 then lt.run fr else lf.run fr
      | _ ->
        let rd = int_rd st v in
        fun fr ->
          tick clk pr c;
          if rd fr <> 0 then lt.run fr else lf.run fr
    end
  | Instr.Ret None -> fun fr -> fr.ret_i <- 0; ret_int
  | Instr.Ret (Some v) ->
    if Types.equal f.ret Types.F64 then begin
      match fsrc st fl v with
      | Freg x -> fun fr -> fr.floats.(rs) <- fr.floats.(x); ret_flt
      | Fconst k -> fun fr -> fr.floats.(rs) <- k; ret_flt
      | Fother ->
        let rd = float_rd st fl v in
        fun fr -> fr.floats.(rs) <- rd fr; ret_flt
    end
    else begin
      match (v : Instr.value) with
      | Instr.Reg x -> fun fr -> fr.ret_i <- fr.ints.(x); ret_int
      | _ ->
        let rd = int_rd st v in
        fun fr -> fr.ret_i <- rd fr; ret_int
    end
  | Instr.Unreachable ->
    let fname = f.name in
    fun _ -> trap "reached unreachable in %s:L%d" fname bid

(* ---------- load-time decoding ---------- *)

let unset : code = fun _ -> assert false

(* Thread every block back to front: its terminator first, then each
   instruction onto the closure of the one after it. *)
let dec_func st table exhausted df (f : Func.t) =
  let cx =
    { cs = st; fl = float_regs st f; clk = Runtime.clock st.rt;
      pr = Runtime.profile st.rt; site = Runtime.site st.rt;
      exhausted; fn = f.name; rslot = df.nregs; callees = table }
  in
  let labels = Array.map (fun _ -> { run = unset }) f.blocks in
  Array.iteri
    (fun i (b : Func.block) ->
      let bid = b.bid in
      let code = ref (dec_term cx labels f ~bid b.term) in
      for idx = Array.length b.instrs - 1 downto 0 do
        code := dec_instr cx ~bid ~idx b.instrs.(idx) !code
      done;
      labels.(i).run <- !code)
    f.blocks;
  df.entry <- (label labels 0).run

let prepare st (m : Irmod.t) =
  let table = Hashtbl.create 16 in
  (* Two passes so calls — including mutual recursion and forward
     references — resolve to direct decoded-function records.  As in
     the reference's function table, a duplicated name resolves to its
     last definition. *)
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace table f.name
        { fname = f.name; nregs = Func.nregs f; params = f.params;
          entry = unset; frames = [||]; depth = 0 })
    m.funcs;
  let exhausted =
    Trap (Printf.sprintf "fuel exhausted (%d instructions)" st.fuel)
  in
  List.iter
    (fun (f : Func.t) ->
      (* decode each definition once; for duplicated names the last
         decode wins, matching the reference's lookup *)
      dec_func st table exhausted (Hashtbl.find table f.name) f)
    m.funcs;
  { st; table }

(* A trap, or a runtime error, unwinds every interpreted frame at once
   to here: no interpreted code catches an exception.  Every stack is
   then empty again, as it was when the top-level call began. *)
let unwind t = Hashtbl.iter (fun _ df -> df.depth <- 0) t.table

(* Top-level entry: assign [argv] arguments with the reference
   interpreter's conversion rules, then run. *)
let exec_argv t df (args : argv list) : argv =
  match
    let fr = push df in
    (try
       List.iter2
         (fun (r, ty) a ->
           match (ty : Types.t), a with
           | Types.F64, AF x -> fr.floats.(r) <- x
           | Types.F64, AI x -> fr.floats.(r) <- float_of_int x
           | _, AI x -> fr.ints.(r) <- x
           | _, AF x -> fr.ints.(r) <- int_of_float x)
         df.params args
     with Invalid_argument _ -> trap "arity mismatch calling %s" df.fname);
    let code = exec t.st df fr in
    pop df;
    if code = ret_flt then AF fr.floats.(df.nregs) else AI fr.ret_i
  with
  | res -> res
  | exception e ->
    unwind t;
    raise e

let run_main t =
  match Hashtbl.find_opt t.table "main" with
  | None -> trap "module has no main"
  | Some df -> exec_argv t df []

let run_function t name args =
  match Hashtbl.find_opt t.table name with
  | None -> trap "no function %s" name
  | Some df -> exec_argv t df args
