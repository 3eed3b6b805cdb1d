(* The pre-decoded execution engine.

   The reference interpreter in machine.ml re-decides everything on
   every instruction: operand-kind matches, float-ness checks that are
   static in [reg_tys], a hash lookup plus two list maps per call, a
   site-stamp match before every instruction.  This engine follows the
   compiler's own rule — take every static decision once, off the hot
   path: at load time each function is compiled into flat arrays of
   specialized closures with

     - int vs float operand reads resolved from [reg_tys] (via the
       memoized float-ness bitmap in {!Sem}),
     - cost constants ([alu]/[mul_div]/[branch]/[call]) baked into
       each closure,
     - [Imm] converted from [Int64] once,
     - callees resolved to direct decoded-function references with
       pre-built argument/result movers (no per-call list allocation),
     - [Runtime.set_site] pre-bound only on the runtime-entering
       opcodes (the reference interpreter matches on every one),
     - float loads, stores, moves and arithmetic on float registers
       (and float constants) reading and writing the float register
       file directly: a [frame -> float] reader boxes every float it
       returns, since nothing here is compiled with flambda,
     - the per-instruction charge compiled to two in-place adds on
       record fields bound once at decode time ([tick]), not a call.

   Heap accesses call the runtime's one access path
   ([Runtime.read_i64] & friends), the one the reference interpreter
   calls too, so both engines share every line of residency, fault and
   prefetch bookkeeping.

   Semantics are the reference interpreter's, bit for bit: same trap
   messages raised at the same execution points (never at decode
   time — dead code containing an ill-typed operand or an unknown
   callee must stay inert, exactly as it does under the reference),
   same charge order, same simulated cycles, same stats and
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

(* Register files are split as in the reference interpreter; [ret_i] /
   [ret_f] carry the return value out of a frame without allocating. *)
type frame = {
  ints : int array;
  floats : float array;
  mutable ret_i : int;
  mutable ret_f : float;
}

type op = frame -> unit

(* A terminator returns the next block id, or a negative return code:
   [ret_int] when the frame returned an integer (in [ret_i]), [ret_flt]
   when it returned a float (in [ret_f]).  The distinction is dynamic
   because the reference interpreter's [Ret None] yields integer 0
   even in a float-returning function. *)
let ret_int = -1
let ret_flt = -2

type dblock = { ops : op array; next : frame -> int }

type dfunc = {
  fname : string;                       (* physically f.name: the
                                           attribution ledger memoizes
                                           site strings by identity *)
  nregs : int;
  params : (Instr.reg * Types.t) list;
  mutable dblocks : dblock array;       (* filled in the second pass so
                                           mutually recursive calls
                                           resolve directly *)
}

type t = { st : state; table : (string, dfunc) Hashtbl.t }

(* The per-instruction charge: exactly [Runtime.charge], written as two
   in-place adds on the clock and the profile's compute counter.  Dune's
   default dev profile compiles every module [-opaque], so a call into
   [Runtime] is never inlined; this is.  Both records are bound once
   per decoded instruction ([meter]), and since [tick] adds the same
   cost to both, compute + ledger = now still holds by construction. *)
let[@inline] tick (clk : Runtime.clock) (pr : Profile.t) c =
  clk.cycles <- clk.cycles + c;
  pr.p_compute <- pr.p_compute + c

let meter st = (Runtime.clock st.rt, Runtime.profile st.rt)

let new_frame df =
  { ints = Array.make df.nregs 0;
    floats = Array.make df.nregs 0.0;
    ret_i = 0;
    ret_f = 0.0 }

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

(* ---------- instruction decoding ---------- *)

(* Integer binops: the hot loop shapes (reg op reg, reg op imm) get
   dedicated closures with no operand indirection at all; everything
   else pays two reader calls plus the resolved operator. *)
let dec_ibin st r op a b : op =
  let clk, pr = meter st in
  let c =
    match (op : Instr.binop) with
    | Mul | Div | Rem -> st.cost.mul_div
    | _ -> st.cost.alu
  in
  match (op : Instr.binop), (a : Instr.value), (b : Instr.value) with
  | Add, Reg x, Reg y ->
    fun fr -> tick clk pr c; fr.ints.(r) <- fr.ints.(x) + fr.ints.(y)
  | Add, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr -> tick clk pr c; fr.ints.(r) <- fr.ints.(x) + k
  | Sub, Reg x, Reg y ->
    fun fr -> tick clk pr c; fr.ints.(r) <- fr.ints.(x) - fr.ints.(y)
  | Sub, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr -> tick clk pr c; fr.ints.(r) <- fr.ints.(x) - k
  | Mul, Reg x, Reg y ->
    fun fr -> tick clk pr c; fr.ints.(r) <- fr.ints.(x) * fr.ints.(y)
  | Mul, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr -> tick clk pr c; fr.ints.(r) <- fr.ints.(x) * k
  | And, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr -> tick clk pr c; fr.ints.(r) <- fr.ints.(x) land k
  | _ ->
    let fa = int_rd st a and fb = int_rd st b in
    let opf = ibin_fn op in
    fun fr -> tick clk pr c; fr.ints.(r) <- opf (fa fr) (fb fr)

let dec_icmp st r cop a b : op =
  let clk, pr = meter st in
  let c = st.cost.alu in
  match (cop : Instr.cmpop), (a : Instr.value), (b : Instr.value) with
  | Lt, Reg x, Reg y ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- (if fr.ints.(x) < fr.ints.(y) then 1 else 0)
  | Lt, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- (if fr.ints.(x) < k then 1 else 0)
  | Eq, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- (if fr.ints.(x) = k then 1 else 0)
  | _ ->
    let fa = int_rd st a and fb = int_rd st b in
    let opf = icmp_fn cop in
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- (if opf (fa fr) (fb fr) then 1 else 0)

(* Float binops on float registers and constants compute in place; the
   operator is spelled out per shape because passing it as a closure
   would box both operands and the result. *)
let dec_fbin st fl r op a b : op =
  let clk, pr = meter st in
  let c = st.cost.alu in
  match (op : Instr.binop), fsrc st fl a, fsrc st fl b with
  | Fadd, Freg x, Freg y ->
    fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x) +. fr.floats.(y)
  | Fsub, Freg x, Freg y ->
    fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x) -. fr.floats.(y)
  | Fmul, Freg x, Freg y ->
    fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x) *. fr.floats.(y)
  | Fdiv, Freg x, Freg y ->
    fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x) /. fr.floats.(y)
  | Fadd, Freg x, Fconst k ->
    fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x) +. k
  | Fsub, Freg x, Fconst k ->
    fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x) -. k
  | Fmul, Freg x, Fconst k ->
    fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x) *. k
  | Fdiv, Freg x, Fconst k ->
    fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x) /. k
  | Fadd, Fconst k, Freg y ->
    fun fr -> tick clk pr c; fr.floats.(r) <- k +. fr.floats.(y)
  | Fsub, Fconst k, Freg y ->
    fun fr -> tick clk pr c; fr.floats.(r) <- k -. fr.floats.(y)
  | Fmul, Fconst k, Freg y ->
    fun fr -> tick clk pr c; fr.floats.(r) <- k *. fr.floats.(y)
  | Fdiv, Fconst k, Freg y ->
    fun fr -> tick clk pr c; fr.floats.(r) <- k /. fr.floats.(y)
  | _ ->
    let fa = float_rd st fl a and fb = float_rd st fl b in
    let opf = fbin_fn op in
    fun fr -> tick clk pr c; fr.floats.(r) <- opf (fa fr) (fb fr)

(* Float compares: a float register against a float register or a
   constant, in place. *)
let dec_fcmp st fl r cop a b : op =
  let clk, pr = meter st in
  let c = st.cost.alu in
  match (cop : Instr.cmpop), fsrc st fl a, fsrc st fl b with
  | Eq, Freg x, Freg y ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) = fr.floats.(y))
  | Ne, Freg x, Freg y ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) <> fr.floats.(y))
  | Lt, Freg x, Freg y ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) < fr.floats.(y))
  | Le, Freg x, Freg y ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) <= fr.floats.(y))
  | Gt, Freg x, Freg y ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) > fr.floats.(y))
  | Ge, Freg x, Freg y ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) >= fr.floats.(y))
  | Eq, Freg x, Fconst k ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) = k)
  | Ne, Freg x, Fconst k ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) <> k)
  | Lt, Freg x, Fconst k ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) < k)
  | Le, Freg x, Fconst k ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) <= k)
  | Gt, Freg x, Fconst k ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) > k)
  | Ge, Freg x, Fconst k ->
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (fr.floats.(x) >= k)
  | _ ->
    let fa = float_rd st fl a and fb = float_rd st fl b in
    let opf = fcmp_fn cop in
    fun fr ->
      tick clk pr c;
      fr.ints.(r) <- Bool.to_int (opf (fa fr) (fb fr))

(* Forward reference: the Call decoder needs to execute a decoded
   function, and execution needs decoded blocks.  Tied below. *)
let exec_ref : (state -> dfunc -> frame -> int) ref =
  ref (fun _ _ _ -> assert false)

let dec_call st fl (ropt : Instr.reg option) name args table : op =
  let clk, pr = meter st in
  let c = st.cost.call in
  match name with
  | "print_int" -> (
    match args with
    | a0 :: _ ->
      let rd = int_rd st a0 in
      fun fr ->
        tick clk pr c;
        Buffer.add_string st.out (string_of_int (rd fr));
        Buffer.add_char st.out '\n'
    | [] -> fun _ -> tick clk pr c; failwith "hd")
  | "print_float" -> (
    match args with
    | a0 :: _ ->
      let rd = float_rd st fl a0 in
      fun fr ->
        tick clk pr c;
        Buffer.add_string st.out (Printf.sprintf "%.6g" (rd fr));
        Buffer.add_char st.out '\n'
    | [] -> fun _ -> tick clk pr c; failwith "hd")
  | "clock" -> (
    match ropt with
    | Some r -> fun fr -> tick clk pr c; fr.ints.(r) <- clk.cycles
    | None -> fun _ -> tick clk pr c)
  | "abort" -> fun _ -> tick clk pr c; trap "abort() called"
  | _ -> (
    match Hashtbl.find_opt table name with
    | None -> fun _ -> tick clk pr c; trap "call to unknown function %s" name
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
        tick clk pr c;
        Array.iter (fun e -> e fr) evals;
        trap "arity mismatch calling %s" name
    | Some df ->
      (* Argument movers: one closure per parameter, reading from the
         caller frame and writing the callee register directly — the
         reference's per-call [List.map2] + argv list disappears. *)
      let movers =
        Array.of_list
          (List.map2
             (fun (pr, ty) v ->
               match (ty : Types.t) with
               | Types.F64 -> (
                 match fsrc st fl v with
                 | Freg x -> fun fr cf -> cf.floats.(pr) <- fr.floats.(x)
                 | Fconst k -> fun _ cf -> cf.floats.(pr) <- k
                 | Fother ->
                   let rd = float_rd st fl v in
                   fun fr cf -> cf.floats.(pr) <- rd fr)
               | _ ->
                 let rd = int_rd st v in
                 fun fr cf -> cf.ints.(pr) <- rd fr)
             df.params args)
      in
      let store_ret : (int -> frame -> frame -> unit) option =
        match ropt with
        | None -> None
        | Some r ->
          if fl.(r) then
            Some
              (fun code fr cf ->
                fr.floats.(r) <-
                  (if code = ret_flt then cf.ret_f
                   else float_of_int cf.ret_i))
          else
            Some
              (fun code fr cf ->
                fr.ints.(r) <-
                  (if code = ret_flt then int_of_float cf.ret_f
                   else cf.ret_i))
      in
      let nmovers = Array.length movers in
      match store_ret with
      | None ->
        fun fr ->
          tick clk pr c;
          let cf = new_frame df in
          for i = 0 to nmovers - 1 do
            movers.(i) fr cf
          done;
          ignore (!exec_ref st df cf)
      | Some store ->
        fun fr ->
          tick clk pr c;
          let cf = new_frame df in
          for i = 0 to nmovers - 1 do
            movers.(i) fr cf
          done;
          let code = !exec_ref st df cf in
          store code fr cf)

let dec_instr st (f : Func.t) fl table ~bid ~idx (ins : Instr.instr) : op =
  let rt = st.rt in
  let clk, pr = meter st in
  let fn = f.name in
  (* [Runtime.set_site] is pre-bound only on the opcodes that can enter
     the runtime, mirroring the reference interpreter's stamp match —
     but resolved at decode time instead of per instruction. *)
  match ins with
  | Instr.Bin (r, op, a, b) ->
    if Instr.is_float_binop op then dec_fbin st fl r op a b
    else dec_ibin st r op a b
  | Instr.Cmp (r, cop, a, b) ->
    if floaty fl a || floaty fl b then dec_fcmp st fl r cop a b
    else dec_icmp st r cop a b
  | Instr.Mov (r, v) ->
    let c = st.cost.alu in
    if fl.(r) then begin
      match fsrc st fl v with
      | Freg x -> fun fr -> tick clk pr c; fr.floats.(r) <- fr.floats.(x)
      | Fconst k -> fun fr -> tick clk pr c; fr.floats.(r) <- k
      | Fother ->
        let rd = float_rd st fl v in
        fun fr -> tick clk pr c; fr.floats.(r) <- rd fr
    end
    else begin
      match (v : Instr.value) with
      | Instr.Reg x -> fun fr -> tick clk pr c; fr.ints.(r) <- fr.ints.(x)
      | Instr.Imm i ->
        let k = Int64.to_int i in
        fun fr -> tick clk pr c; fr.ints.(r) <- k
      | _ ->
        let rd = int_rd st v in
        fun fr -> tick clk pr c; fr.ints.(r) <- rd fr
    end
  | Instr.I2f (r, v) -> (
    let c = st.cost.alu in
    match (v : Instr.value) with
    | Instr.Reg x ->
      fun fr -> tick clk pr c; fr.floats.(r) <- float_of_int fr.ints.(x)
    | _ ->
      let rd = int_rd st v in
      fun fr -> tick clk pr c; fr.floats.(r) <- float_of_int (rd fr))
  | Instr.F2i (r, v) -> (
    let c = st.cost.alu in
    match fsrc st fl v with
    | Freg x ->
      fun fr -> tick clk pr c; fr.ints.(r) <- int_of_float fr.floats.(x)
    | _ ->
      let rd = float_rd st fl v in
      fun fr -> tick clk pr c; fr.ints.(r) <- int_of_float (rd fr))
  | Instr.Load (r, ty, addr) -> (
    let f64 = Types.equal ty Types.F64 in
    match (addr : Instr.value) with
    | Instr.Reg x ->
      if f64 then
        fun fr ->
          Runtime.set_site rt ~fn ~block:bid ~instr:idx;
          Runtime.read_f64_into rt fr.ints.(x) fr.floats r
      else
        fun fr ->
          Runtime.set_site rt ~fn ~block:bid ~instr:idx;
          fr.ints.(r) <- Runtime.read_i64 rt fr.ints.(x)
    | _ ->
      let rd = int_rd st addr in
      if f64 then
        fun fr ->
          Runtime.set_site rt ~fn ~block:bid ~instr:idx;
          Runtime.read_f64_into rt (rd fr) fr.floats r
      else
        fun fr ->
          Runtime.set_site rt ~fn ~block:bid ~instr:idx;
          fr.ints.(r) <- Runtime.read_i64 rt (rd fr))
  | Instr.Store (ty, addr, v) ->
    let ra = int_rd st addr in
    if Types.equal ty Types.F64 then begin
      match fsrc st fl v with
      | Freg x ->
        fun fr ->
          Runtime.set_site rt ~fn ~block:bid ~instr:idx;
          Runtime.write_f64_from rt (ra fr) fr.floats x
      | _ ->
        (* Any other operand shape: the value is not in a float
           register, so it is read and stored as a float. *)
        let rv = float_rd st fl v in
        fun fr ->
          Runtime.set_site rt ~fn ~block:bid ~instr:idx;
          let a = ra fr in
          Runtime.write_f64 rt a (rv fr)
    end
    else begin
      match (addr : Instr.value), (v : Instr.value) with
      | Instr.Reg x, Instr.Reg y ->
        fun fr ->
          Runtime.set_site rt ~fn ~block:bid ~instr:idx;
          Runtime.write_i64 rt fr.ints.(x) fr.ints.(y)
      | _ ->
        let rv = int_rd st v in
        fun fr ->
          Runtime.set_site rt ~fn ~block:bid ~instr:idx;
          let a = ra fr in
          Runtime.write_i64 rt a (rv fr)
    end
  | Instr.Gep (r, base, idx_v, scale) -> (
    let c = st.cost.alu in
    match (base : Instr.value), (idx_v : Instr.value) with
    | Instr.Reg x, Instr.Reg y ->
      fun fr ->
        tick clk pr c;
        fr.ints.(r) <- fr.ints.(x) + (fr.ints.(y) * scale)
    | _ ->
      let rb = int_rd st base and ri = int_rd st idx_v in
      fun fr ->
        tick clk pr c;
        fr.ints.(r) <- rb fr + (ri fr * scale))
  | Instr.Malloc (r, size) ->
    let rs = int_rd st size in
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      fr.ints.(r) <- Runtime.ds_alloc rt ~handle:0 ~size:(rs fr)
  | Instr.Free v ->
    let rd = int_rd st v in
    fun fr -> Runtime.free rt (rd fr)
  | Instr.Guard (k, addr) -> (
    let write = k = Instr.Gwrite in
    match (addr : Instr.value) with
    | Instr.Reg x ->
      fun fr ->
        Runtime.set_site rt ~fn ~block:bid ~instr:idx;
        Runtime.guard rt ~write fr.ints.(x)
    | _ ->
      let rd = int_rd st addr in
      fun fr ->
        Runtime.set_site rt ~fn ~block:bid ~instr:idx;
        Runtime.guard rt ~write (rd fr))
  | Instr.DsInit (r, sid) ->
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      fr.ints.(r) <- Runtime.ds_init rt ~sid
  | Instr.DsAlloc (r, size, h) ->
    let rh = int_rd st h and rs = int_rd st size in
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      fr.ints.(r) <- Runtime.ds_alloc rt ~handle:(rh fr) ~size:(rs fr)
  | Instr.LoopCheck (r, bases) ->
    let rds = Array.of_list (List.map (int_rd st) bases) in
    let n = Array.length rds in
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      (* left-to-right, as the reference's [List.map] evaluates *)
      let rec build i = if i = n then [] else rds.(i) fr :: build (i + 1) in
      fr.ints.(r) <- (if Runtime.loop_check rt (build 0) then 1 else 0)
  | Instr.Prefetch _ ->
    let c = st.cost.alu in
    fun _ -> tick clk pr c
  | Instr.Call (ropt, name, args) -> dec_call st fl ropt name args table

let dec_term st (f : Func.t) fl ~bid (term : Instr.term) : frame -> int =
  let clk, pr = meter st in
  match term with
  | Instr.Br target ->
    let c = st.cost.branch in
    fun _ -> tick clk pr c; target
  | Instr.Cbr (v, bt, bf) ->
    let c = st.cost.branch in
    if floaty fl v then begin
      match fsrc st fl v with
      | Freg x ->
        fun fr -> tick clk pr c; if fr.floats.(x) <> 0.0 then bt else bf
      | _ ->
        let rd = float_rd st fl v in
        fun fr -> tick clk pr c; if rd fr <> 0.0 then bt else bf
    end
    else begin
      match (v : Instr.value) with
      | Instr.Reg r ->
        fun fr ->
          tick clk pr c;
          if fr.ints.(r) <> 0 then bt else bf
      | _ ->
        let rd = int_rd st v in
        fun fr ->
          tick clk pr c;
          if rd fr <> 0 then bt else bf
    end
  | Instr.Ret None -> fun fr -> fr.ret_i <- 0; ret_int
  | Instr.Ret (Some v) ->
    if Types.equal f.ret Types.F64 then begin
      let rd = float_rd st fl v in
      fun fr -> fr.ret_f <- rd fr; ret_flt
    end
    else begin
      let rd = int_rd st v in
      fun fr -> fr.ret_i <- rd fr; ret_int
    end
  | Instr.Unreachable ->
    let fname = f.name in
    fun _ -> trap "reached unreachable in %s:L%d" fname bid

(* ---------- execution ---------- *)

let run_blocks st df fr =
  let fuel = st.fuel in
  let rec go bid =
    let b = df.dblocks.(bid) in
    let ops = b.ops in
    let n = Array.length ops in
    for i = 0 to n - 1 do
      st.executed <- st.executed + 1;
      if st.executed > fuel then
        trap "fuel exhausted (%d instructions)" fuel;
      ops.(i) fr
    done;
    let nxt = b.next fr in
    if nxt >= 0 then go nxt else nxt
  in
  go 0

(* Call spans exactly as the reference engine records them: with spans
   off the hook is one test of a cached field. *)
let exec st df fr =
  match st.spans with
  | None -> run_blocks st df fr
  | Some c ->
    let since = Span.length c and issued = Runtime.now st.rt in
    let code = run_blocks st df fr in
    Span.call c ~since ~fn:df.fname ~issued ~complete:(Runtime.now st.rt);
    code

let () = exec_ref := exec

(* ---------- load-time decoding ---------- *)

let dec_func st table (f : Func.t) =
  let fl = float_regs st f in
  Array.map
    (fun (b : Func.block) ->
      { ops =
          Array.mapi
            (fun idx ins -> dec_instr st f fl table ~bid:b.bid ~idx ins)
            b.instrs;
        next = dec_term st f fl ~bid:b.bid b.term })
    f.blocks

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
          dblocks = [||] })
    m.funcs;
  List.iter
    (fun (f : Func.t) ->
      let df = Hashtbl.find table f.name in
      (* decode each definition once; for duplicated names the last
         decode wins, matching the reference's lookup *)
      df.dblocks <- dec_func st table f)
    m.funcs;
  { st; table }

(* Top-level entry: assign [argv] arguments with the reference
   interpreter's conversion rules, then run. *)
let exec_argv t df (args : argv list) : argv =
  let fr = new_frame df in
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
  if code = ret_flt then AF fr.ret_f else AI fr.ret_i

let run_main t =
  match Hashtbl.find_opt t.table "main" with
  | None -> trap "module has no main"
  | Some df -> exec_argv t df []

let run_function t name args =
  match Hashtbl.find_opt t.table name with
  | None -> trap "no function %s" name
  | Some df -> exec_argv t df args
