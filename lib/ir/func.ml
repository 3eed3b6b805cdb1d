type block = {
  bid : int;
  instrs : Instr.instr array;
  term : Instr.term;
}

type t = {
  name : string;
  params : (Instr.reg * Types.t) list;
  ret : Types.t;
  reg_tys : Types.t array;
  blocks : block array;
}

let nregs t = Array.length t.reg_tys
let arity t = List.length t.params

let block t i =
  if i < 0 || i >= Array.length t.blocks then
    invalid_arg (Printf.sprintf "Func.block: no block %d in %s" i t.name);
  t.blocks.(i)

let entry t = block t 0

let iter_instrs t visit =
  Array.iter
    (fun b -> Array.iteri (fun i ins -> visit b.bid i ins) b.instrs)
    t.blocks

let fold_instrs t f init =
  let acc = ref init in
  iter_instrs t (fun bid i ins -> acc := f !acc bid i ins);
  !acc

let successors t i = Instr.term_successors (block t i).term

let predecessors t =
  let n = Array.length t.blocks in
  let preds = Array.make n [] in
  Array.iter
    (fun b ->
      List.iter
        (fun s -> if s >= 0 && s < n then preds.(s) <- b.bid :: preds.(s))
        (Instr.term_successors b.term))
    t.blocks;
  Array.map List.rev preds

let float_regs t =
  Array.map (fun ty -> Types.equal ty Types.F64) t.reg_tys

let map_blocks t f = { t with blocks = Array.map f t.blocks }
