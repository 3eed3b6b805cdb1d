module Instr = Cards_ir.Instr
module Func = Cards_ir.Func
module Bitset = Cards_util.Bitset

type iv = { ivreg : Instr.reg; step : int }

type strided_access = {
  sa_bid : int;
  sa_idx : int;
  sa_base : Instr.value;
  sa_stride : int;
  sa_is_store : bool;
}

type t = {
  ivs : iv list array;              (* per loop *)
  strided : strided_access list array;
}

let defs_in_loop f (loop : Loops.loop) =
  (* reg -> list of defining instructions inside the loop *)
  let tbl = Hashtbl.create 32 in
  Func.iter_instrs f (fun bid _ ins ->
      if Bitset.mem loop.body bid then
        match Instr.defined_reg ins with
        | Some r ->
          let old = Option.value (Hashtbl.find_opt tbl r) ~default:[] in
          Hashtbl.replace tbl r (ins :: old)
        | None -> ());
  tbl

let loop_invariant cfg (loop : Loops.loop) v =
  match v with
  | Instr.Imm _ | Instr.Fimm _ | Instr.Null | Instr.GlobalAddr _ -> true
  | Instr.Reg r ->
    let f = Cfg.func cfg in
    let defined_inside = ref false in
    Func.iter_instrs f (fun bid _ ins ->
        if Bitset.mem loop.body bid && Instr.defined_reg ins = Some r then
          defined_inside := true);
    not !defined_inside

(* Step of [r] if its updates inside the loop form the canonical
   increment pattern. *)
let step_of defs r =
  let as_step = function
    | Instr.Bin (_, Instr.Add, Instr.Reg r', Instr.Imm c) when r' = r ->
      Some (Int64.to_int c)
    | Instr.Bin (_, Instr.Add, Instr.Imm c, Instr.Reg r') when r' = r ->
      Some (Int64.to_int c)
    | Instr.Bin (_, Instr.Sub, Instr.Reg r', Instr.Imm c) when r' = r ->
      Some (- (Int64.to_int c))
    | _ -> None
  in
  match Option.value (Hashtbl.find_opt defs r) ~default:[] with
  | [ (Instr.Bin (rd, _, _, _) as ins) ] when rd = r -> as_step ins
  | [ Instr.Mov (rd, Instr.Reg t) ] when rd = r -> begin
    (* Lowered pattern: t <- r + c; r <- t. *)
    match Option.value (Hashtbl.find_opt defs t) ~default:[] with
    | [ ins ] -> begin
      match Instr.defined_reg ins with
      | Some td when td = t -> as_step ins
      | _ -> None
    end
    | _ -> None
  end
  | _ -> None

let compute cfg loops =
  let f = Cfg.func cfg in
  let ls = Loops.loops loops in
  let nl = Array.length ls in
  let ivs = Array.make nl [] in
  let strided = Array.make nl [] in
  for li = 0 to nl - 1 do
    let loop = ls.(li) in
    let defs = defs_in_loop f loop in
    let found = ref [] in
    Hashtbl.iter
      (fun r _ ->
        match step_of defs r with
        | Some step when step <> 0 -> found := { ivreg = r; step } :: !found
        | Some _ | None -> ())
      defs;
    ivs.(li) <- !found;
    let is_iv_reg r = List.exists (fun iv -> iv.ivreg = r) !found in
    (* Strided accesses: a load/store whose address comes from a GEP on
       a loop-invariant base indexed by a basic IV.  We look the GEP up
       by scanning the loop for the defining instruction. *)
    let gep_of = Hashtbl.create 16 in
    Func.iter_instrs f (fun bid _ ins ->
        if Bitset.mem loop.body bid then
          match ins with
          | Instr.Gep (r, base, Instr.Reg idx, scale)
            when is_iv_reg idx && loop_invariant cfg loop base ->
            let step =
              (List.find (fun iv -> iv.ivreg = idx) !found).step
            in
            Hashtbl.replace gep_of r (base, step * scale)
          | _ -> ());
    Func.iter_instrs f (fun bid idx ins ->
        if Bitset.mem loop.body bid then
          match ins with
          | Instr.Load (_, _, Instr.Reg a) -> begin
            match Hashtbl.find_opt gep_of a with
            | Some (base, stride) ->
              strided.(li) <-
                { sa_bid = bid; sa_idx = idx; sa_base = base; sa_stride = stride;
                  sa_is_store = false }
                :: strided.(li)
            | None -> ()
          end
          | Instr.Store (_, Instr.Reg a, _) -> begin
            match Hashtbl.find_opt gep_of a with
            | Some (base, stride) ->
              strided.(li) <-
                { sa_bid = bid; sa_idx = idx; sa_base = base; sa_stride = stride;
                  sa_is_store = true }
                :: strided.(li)
            | None -> ()
          end
          | _ -> ())
  done;
  { ivs; strided }

let basic_ivs t li = t.ivs.(li)

let strided_accesses t li = t.strided.(li)
