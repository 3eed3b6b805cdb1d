module Func = Cards_ir.Func
module Instr = Cards_ir.Instr
module Irmod = Cards_ir.Irmod
module A = Cards_analysis

(* Per-domain, so a compile can run on any domain. *)
let removed = Domain.DLS.new_key (fun () -> ref 0)
let removed_last_run () = !(Domain.DLS.get removed)

(* ---------- constant folding ---------- *)

let fold_ibin op a b =
  let open Instr in
  match op with
  | Add -> Some (Int64.add a b)
  | Sub -> Some (Int64.sub a b)
  | Mul -> Some (Int64.mul a b)
  | Div -> if b = 0L then None else Some (Int64.div a b)
  | Rem -> if b = 0L then None else Some (Int64.rem a b)
  | And -> Some (Int64.logand a b)
  | Or -> Some (Int64.logor a b)
  | Xor -> Some (Int64.logxor a b)
  | Shl -> Some (Int64.shift_left a (Int64.to_int b land 63))
  | Shr -> Some (Int64.shift_right a (Int64.to_int b land 63))
  | Fadd | Fsub | Fmul | Fdiv -> None

let fold_fbin op a b =
  let open Instr in
  match op with
  | Fadd -> Some (a +. b)
  | Fsub -> Some (a -. b)
  | Fmul -> Some (a *. b)
  | Fdiv -> Some (a /. b)
  | _ -> None

let fold_icmp op a b =
  let open Instr in
  let r =
    match op with
    | Eq -> a = b | Ne -> a <> b | Lt -> a < b
    | Le -> a <= b | Gt -> a > b | Ge -> a >= b
  in
  if r then 1L else 0L

let fold_fcmp op (a : float) b =
  let open Instr in
  let r =
    match op with
    | Eq -> a = b | Ne -> a <> b | Lt -> a < b
    | Le -> a <= b | Gt -> a > b | Ge -> a >= b
  in
  if r then 1L else 0L

let fold_instr ins =
  match ins with
  | Instr.Bin (r, op, Instr.Imm a, Instr.Imm b) -> begin
    match fold_ibin op a b with
    | Some v -> Instr.Mov (r, Instr.Imm v)
    | None -> ins
  end
  | Instr.Bin (r, op, Instr.Fimm a, Instr.Fimm b) -> begin
    match fold_fbin op a b with
    | Some v -> Instr.Mov (r, Instr.Fimm v)
    | None -> ins
  end
  (* algebraic identities *)
  | Instr.Bin (r, Instr.Add, v, Instr.Imm 0L)
  | Instr.Bin (r, Instr.Add, Instr.Imm 0L, v)
  | Instr.Bin (r, Instr.Sub, v, Instr.Imm 0L) -> Instr.Mov (r, v)
  | Instr.Bin (r, Instr.Mul, v, Instr.Imm 1L)
  | Instr.Bin (r, Instr.Mul, Instr.Imm 1L, v) -> Instr.Mov (r, v)
  | Instr.Bin (r, Instr.Mul, _, Instr.Imm 0L)
  | Instr.Bin (r, Instr.Mul, Instr.Imm 0L, _) -> Instr.Mov (r, Instr.Imm 0L)
  | Instr.Cmp (r, op, Instr.Imm a, Instr.Imm b) ->
    Instr.Mov (r, Instr.Imm (fold_icmp op a b))
  | Instr.Cmp (r, op, Instr.Fimm a, Instr.Fimm b) ->
    Instr.Mov (r, Instr.Imm (fold_fcmp op a b))
  | Instr.I2f (r, Instr.Imm a) -> Instr.Mov (r, Instr.Fimm (Int64.to_float a))
  | Instr.F2i (r, Instr.Fimm a) ->
    Instr.Mov (r, Instr.Imm (Int64.of_float a))
  | Instr.Gep (r, base, Instr.Imm 0L, _) -> Instr.Mov (r, base)
  | _ -> ins

(* ---------- copy / constant propagation ---------- *)

(* A register can be replaced by its source value when it has a single
   definition [r <- Mov v] with [v] an immediate (or a register that is
   never redefined), and the definition dominates the use. *)
let propagate (f : Func.t) =
  let cfg = A.Cfg.of_func f in
  let dom = A.Dominators.compute cfg in
  (* def counts + the unique def site *)
  let counts = Hashtbl.create 32 in
  let defsite = Hashtbl.create 32 in
  Func.iter_instrs f (fun bid idx ins ->
      match Instr.defined_reg ins with
      | Some r ->
        Hashtbl.replace counts r
          (1 + Option.value (Hashtbl.find_opt counts r) ~default:0);
        Hashtbl.replace defsite r (bid, idx, ins)
      | None -> ());
  let single_def r =
    match Hashtbl.find_opt counts r with
    | Some 1 -> Hashtbl.find_opt defsite r
    | _ -> None
  in
  let is_param r = List.exists (fun (pr, _) -> pr = r) f.params in
  (* the replacement value for r, if any *)
  let replacement r =
    if is_param r then None
    else
      match single_def r with
      | Some (bid, idx, Instr.Mov (_, (Instr.Imm _ | Instr.Fimm _ | Instr.Null as v))) ->
        Some (bid, idx, v)
      | Some (bid, idx, Instr.Mov (_, (Instr.Reg src as v)))
        when (not (is_param src))
             && Hashtbl.find_opt counts src = Some 1
             || (is_param src && Hashtbl.find_opt counts src = None) ->
        Some (bid, idx, v)
      | _ -> None
  in
  let changed = ref false in
  let rewrite_value ~ubid ~uidx v =
    match v with
    | Instr.Reg r -> begin
      match replacement r with
      | Some (dbid, didx, v')
        when
          (dbid = ubid && didx < uidx)
          || (dbid <> ubid && A.Dominators.dominates dom dbid ubid) ->
        changed := true;
        v'
      | _ -> v
    end
    | _ -> v
  in
  let blocks =
    Array.map
      (fun (b : Func.block) ->
        let instrs =
          Array.mapi
            (fun idx ins ->
              Instr.map_instr_values (rewrite_value ~ubid:b.bid ~uidx:idx) ins)
            b.instrs
        in
        let term =
          Instr.map_term_values
            (rewrite_value ~ubid:b.bid ~uidx:(Array.length b.instrs))
            b.term
        in
        { b with Func.instrs; term })
      f.blocks
  in
  ({ f with Func.blocks = blocks }, !changed)

(* ---------- branch folding ---------- *)

let fold_branches (f : Func.t) =
  let changed = ref false in
  let blocks =
    Array.map
      (fun (b : Func.block) ->
        match b.Func.term with
        | Instr.Cbr (Instr.Imm c, bt, bf) ->
          changed := true;
          { b with Func.term = Instr.Br (if c <> 0L then bt else bf) }
        | Instr.Cbr (Instr.Null, _, bf) ->
          changed := true;
          { b with Func.term = Instr.Br bf }
        | _ -> b)
      f.Func.blocks
  in
  ({ f with Func.blocks = blocks }, !changed)

(* ---------- dead code elimination ---------- *)

let has_side_effect = function
  | Instr.Store _ | Instr.Call _ | Instr.Guard _ | Instr.DsInit _
  | Instr.DsAlloc _ | Instr.Malloc _ | Instr.Free _ | Instr.LoopCheck _
  | Instr.Prefetch _ -> true
  | Instr.Bin _ | Instr.Cmp _ | Instr.Mov _ | Instr.I2f _ | Instr.F2i _
  | Instr.Load _ | Instr.Gep _ -> false

let dce (f : Func.t) =
  (* live registers: used by side-effecting instrs / terminators /
     other live instrs, to a fixpoint *)
  let live = Hashtbl.create 64 in
  let changed = ref true in
  while !changed do
    changed := false;
    Func.iter_instrs f (fun _ _ ins ->
        let keep =
          has_side_effect ins
          ||
          match Instr.defined_reg ins with
          | Some r -> Hashtbl.mem live r
          | None -> true
        in
        if keep then
          List.iter
            (fun v ->
              match v with
              | Instr.Reg r when not (Hashtbl.mem live r) ->
                Hashtbl.replace live r ();
                changed := true
              | _ -> ())
            (Instr.used_values ins));
    Array.iter
      (fun (b : Func.block) ->
        List.iter
          (fun v ->
            match v with
            | Instr.Reg r when not (Hashtbl.mem live r) ->
              Hashtbl.replace live r ();
              changed := true
            | _ -> ())
          (Instr.term_used_values b.Func.term))
      f.Func.blocks
  done;
  let dropped = ref 0 in
  let blocks =
    Array.map
      (fun (b : Func.block) ->
        let instrs =
          Array.of_list
            (List.filter
               (fun ins ->
                 let keep =
                   has_side_effect ins
                   ||
                   match Instr.defined_reg ins with
                   | Some r -> Hashtbl.mem live r
                   | None -> true
                 in
                 if not keep then incr dropped;
                 keep)
               (Array.to_list b.Func.instrs))
        in
        { b with Func.instrs })
      f.Func.blocks
  in
  ({ f with Func.blocks = blocks }, !dropped)

(* ---------- driver ---------- *)

let run_func f =
  let rec go f budget =
    if budget = 0 then f
    else begin
      let f =
        Func.map_blocks f (fun b ->
            { b with Func.instrs = Array.map fold_instr b.Func.instrs })
      in
      let f, prop_changed = propagate f in
      let f, br_changed = fold_branches f in
      let f, dropped = dce f in
      let removed = Domain.DLS.get removed in
      removed := !removed + dropped;
      if prop_changed || br_changed || dropped > 0 then go f (budget - 1) else f
    end
  in
  go f 8

let run (m : Irmod.t) =
  Domain.DLS.get removed := 0;
  let m' = Irmod.replace_funcs m (List.map run_func m.funcs) in
  Cards_ir.Verify.check_exn m';
  m'
