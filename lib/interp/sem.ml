module Instr = Cards_ir.Instr
module Func = Cards_ir.Func
module Types = Cards_ir.Types
module Irmod = Cards_ir.Irmod
module Runtime = Cards_runtime.Runtime
module Cost = Cards_runtime.Cost
module Span = Cards_obs.Span

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

type argv = AI of int | AF of float

(* ---------- execution state shared by both engines ---------- *)

type state = {
  rt : Runtime.t;
  cost : Cost.t;
  funcs : (string, Func.t) Hashtbl.t;
  globals : (string, int) Hashtbl.t;  (* name -> unmanaged address *)
  floaty : (string, bool array) Hashtbl.t;
      (* per-function register float-ness, memoized: float-ness is
         static in [reg_tys], so it is resolved once per function and
         never re-derived per access *)
  mutable executed : int;
  fuel : int;
  out : Buffer.t;
  spans : Span.collector option;
      (* the runtime sink's collector, cached for the call hook *)
}

let global_addr st g =
  match Hashtbl.find_opt st.globals g with
  | Some a -> a
  | None -> trap "unknown global @%s" g

let float_regs st (f : Func.t) =
  match Hashtbl.find_opt st.floaty f.name with
  | Some fl -> fl
  | None ->
    let fl = Func.float_regs f in
    Hashtbl.replace st.floaty f.name fl;
    fl

(* ---------- scalar semantics ---------- *)

(* MiniC shift semantics: the shift count is masked to 6 bits (taken
   mod 64).  Values are 63-bit OCaml ints, so a masked count of 63
   would be unspecified behaviour in OCaml ([lsl]/[asr] are only
   defined for counts in [0, 62]); MiniC defines it to shift every
   magnitude bit out: [shl] by 63 yields 0 and [shr] by 63 yields the
   sign (0 or -1 — what [asr 62] already produces on a 63-bit value).
   Both execution engines go through these two functions, and
   test_interp checks the 0/62/63/64 boundary counts on both. *)
let shl a b =
  let s = b land 63 in
  if s > 62 then 0 else a lsl s

let shr a b =
  let s = b land 63 in
  if s > 62 then a asr 62 else a asr s

let exec_ibin op a b =
  match (op : Instr.binop) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then trap "division by zero" else a / b
  | Rem -> if b = 0 then trap "remainder by zero" else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> shl a b
  | Shr -> shr a b
  | Fadd | Fsub | Fmul | Fdiv -> trap "float op in integer context"

let exec_fbin op a b =
  match (op : Instr.binop) with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | _ -> trap "integer op in float context"

let exec_icmp op a b =
  let r =
    match (op : Instr.cmpop) with
    | Eq -> a = b | Ne -> a <> b | Lt -> a < b
    | Le -> a <= b | Gt -> a > b | Ge -> a >= b
  in
  if r then 1 else 0

let exec_fcmp op (a : float) b =
  let r =
    match (op : Instr.cmpop) with
    | Eq -> a = b | Ne -> a <> b | Lt -> a < b
    | Le -> a <= b | Gt -> a > b | Ge -> a >= b
  in
  if r then 1 else 0

(* Decode-time variants: the operator is resolved to a closure once,
   so the per-execution work is one indirect call instead of a match. *)

let ibin_fn (op : Instr.binop) : int -> int -> int =
  match op with
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> (fun a b -> if b = 0 then trap "division by zero" else a / b)
  | Rem -> (fun a b -> if b = 0 then trap "remainder by zero" else a mod b)
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Shl -> shl
  | Shr -> shr
  | Fadd | Fsub | Fmul | Fdiv ->
    fun _ _ -> trap "float op in integer context"

let fbin_fn (op : Instr.binop) : float -> float -> float =
  match op with
  | Fadd -> ( +. )
  | Fsub -> ( -. )
  | Fmul -> ( *. )
  | Fdiv -> ( /. )
  | _ -> fun _ _ -> trap "integer op in float context"

let icmp_fn (op : Instr.cmpop) : int -> int -> bool =
  match op with
  | Eq -> ( = ) | Ne -> ( <> ) | Lt -> ( < )
  | Le -> ( <= ) | Gt -> ( > ) | Ge -> ( >= )

let fcmp_fn (op : Instr.cmpop) : float -> float -> bool =
  match op with
  | Eq -> ( = ) | Ne -> ( <> ) | Lt -> ( < )
  | Le -> ( <= ) | Gt -> ( > ) | Ge -> ( >= )

(* ---------- setup ---------- *)

let setup ?(fuel = max_int) (m : Irmod.t) rt =
  let funcs = Hashtbl.create 16 in
  List.iter (fun (f : Func.t) -> Hashtbl.replace funcs f.name f) m.funcs;
  let globals = Hashtbl.create 16 in
  let st =
    { rt; cost = Cost.cards; funcs; globals; floaty = Hashtbl.create 16;
      executed = 0; fuel; out = Buffer.create 256;
      spans = Cards_obs.Sink.spans (Runtime.sink rt) }
  in
  List.iter
    (fun (g : Irmod.global) ->
      let addr = Runtime.alloc_unmanaged rt ~size:(Types.size_of g.gty) in
      Hashtbl.replace globals g.gname addr;
      match g.ginit with
      | Instr.Imm i -> Runtime.write_i64 rt addr (Int64.to_int i)
      | Instr.Fimm x -> Runtime.write_f64 rt addr x
      | Instr.Null -> Runtime.write_i64 rt addr 0
      | Instr.Reg _ | Instr.GlobalAddr _ -> trap "bad global initializer")
    m.globals;
  st
