module Func = Cards_ir.Func
module Instr = Cards_ir.Instr
module Types = Cards_ir.Types
module Vec = Cards_util.Vec

type t = {
  name : string;
  ret : Types.t;
  mutable params : (Instr.reg * Types.t) list;
  tys : Types.t Vec.t;
  binstrs : Instr.instr list Vec.t;
  bterms : Instr.term Vec.t;
}

(* Parameters occupy the low register numbers by convention (see
   {!Cards_ir.Func}); [add_param] appends a fresh register instead of
   renumbering, and [finish] re-establishes the convention by emitting
   parameters in their (reg, ty) order — the interpreter binds actuals
   by the params list, not by position, so appended registers are
   fine. *)

let of_func (f : Func.t) =
  let tys = Vec.create () in
  Array.iter (fun ty -> ignore (Vec.push tys ty)) f.reg_tys;
  let binstrs = Vec.create () and bterms = Vec.create () in
  Array.iter
    (fun (b : Func.block) ->
      ignore (Vec.push binstrs (Array.to_list b.instrs));
      ignore (Vec.push bterms b.term))
    f.blocks;
  { name = f.name; ret = f.ret; params = f.params; tys; binstrs; bterms }

let fresh_reg t ty = Vec.push t.tys ty

let reg_ty t r = Vec.get t.tys r

let nblocks t = Vec.length t.binstrs

let instrs t b = Vec.get t.binstrs b
let term t b = Vec.get t.bterms b

let set_instrs t b l = Vec.set t.binstrs b l
let set_term t b trm = Vec.set t.bterms b trm

let prepend_entry t l = Vec.set t.binstrs 0 (l @ Vec.get t.binstrs 0)

let add_block t l trm =
  let id = Vec.push t.binstrs l in
  ignore (Vec.push t.bterms trm);
  id

let add_param t ty =
  let r = fresh_reg t ty in
  t.params <- t.params @ [ (r, ty) ];
  r

let finish t =
  let blocks =
    Array.init (nblocks t) (fun i ->
        { Func.bid = i;
          instrs = Array.of_list (Vec.get t.binstrs i);
          term = Vec.get t.bterms i })
  in
  { Func.name = t.name; params = t.params; ret = t.ret;
    reg_tys = Array.of_list (Vec.to_list t.tys); blocks }
