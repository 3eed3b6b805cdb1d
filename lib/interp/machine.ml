module Instr = Cards_ir.Instr
module Func = Cards_ir.Func
module Types = Cards_ir.Types
module Irmod = Cards_ir.Irmod
module Runtime = Cards_runtime.Runtime
module Span = Cards_obs.Span

type result = {
  ret : int;
  cycles : int;
  instructions : int;
  output : string list;
}

exception Trap = Sem.Trap

open Sem

type engine = Reference | Decoded

(* ---------- frame-level evaluation (reference engine) ---------- *)

(* [fl] is the function's register float-ness bitmap, resolved once per
   frame ({!Sem.float_regs} memoizes per function): float-ness is
   static in [reg_tys], so it is never re-derived per access. *)
type frame = { f : Func.t; fl : bool array; ints : int array; floats : float array }

let ival st fr = function
  | Instr.Reg r -> fr.ints.(r)
  | Instr.Imm i -> Int64.to_int i
  | Instr.Null -> 0
  | Instr.GlobalAddr g -> global_addr st g
  | Instr.Fimm _ -> trap "float immediate in integer context"

let fval st fr = function
  | Instr.Reg r ->
    if fr.fl.(r) then fr.floats.(r) else float_of_int fr.ints.(r)
  | Instr.Fimm x -> x
  | Instr.Imm i -> Int64.to_float i
  | Instr.Null -> 0.0
  | Instr.GlobalAddr g -> float_of_int (global_addr st g)

let value_is_floaty fr = function
  | Instr.Fimm _ -> true
  | Instr.Reg r -> fr.fl.(r)
  | Instr.Imm _ | Instr.Null | Instr.GlobalAddr _ -> false

(* ---------- the main loop ---------- *)

let rec exec_function st (f : Func.t) (args : argv list) : argv =
  let fr =
    { f;
      fl = float_regs st f;
      ints = Array.make (Func.nregs f) 0;
      floats = Array.make (Func.nregs f) 0.0 }
  in
  (try
     List.iter2
       (fun (r, ty) a ->
         match ty, a with
         | Types.F64, AF x -> fr.floats.(r) <- x
         | Types.F64, AI x -> fr.floats.(r) <- float_of_int x
         | _, AI x -> fr.ints.(r) <- x
         | _, AF x -> fr.ints.(r) <- int_of_float x)
       f.params args
   with Invalid_argument _ ->
     trap "arity mismatch calling %s" f.name);
  let site = Runtime.site st.rt in
  let rec run_block bid =
    let b = f.blocks.(bid) in
    let n = Array.length b.instrs in
    for i = 0 to n - 1 do
      (* Write the access site on instructions that can enter the
         runtime, so stall cycles attribute to the instruction that
         paid them ([f.name] is one string per function: the ledger's
         cache compares it physically, and an unchanged name is not
         stored again). *)
      (match b.instrs.(i) with
       | Instr.Load _ | Instr.Store _ | Instr.Guard _ | Instr.Malloc _
       | Instr.DsInit _ | Instr.DsAlloc _ | Instr.LoopCheck _ ->
         if site.site_fn != f.name then site.site_fn <- f.name;
         site.site_block <- bid;
         site.site_instr <- i
       | _ -> ());
      exec_instr st fr b.instrs.(i)
    done;
    match b.term with
    | Instr.Br target ->
      Runtime.charge st.rt st.cost.branch;
      run_block target
    | Instr.Cbr (v, bt, bf) ->
      Runtime.charge st.rt st.cost.branch;
      let c =
        if value_is_floaty fr v then fval st fr v <> 0.0 else ival st fr v <> 0
      in
      run_block (if c then bt else bf)
    | Instr.Ret None -> AI 0
    | Instr.Ret (Some v) ->
      if Types.equal f.ret Types.F64 then AF (fval st fr v) else AI (ival st fr v)
    | Instr.Unreachable -> trap "reached unreachable in %s:L%d" f.name bid
  in
  (* A call during which a span was recorded closes as a Call span on
     the interpreter row.  A [Trap] unwinds without one, so the spans
     of the failing frame simply stand outside any call. *)
  match st.spans with
  | None -> run_block 0
  | Some c ->
    let since = Span.length c and issued = Runtime.now st.rt in
    let res = run_block 0 in
    Span.call c ~since ~fn:f.name ~issued ~complete:(Runtime.now st.rt);
    res

and exec_instr st fr ins =
  st.executed <- st.executed + 1;
  if st.executed > st.fuel then trap "fuel exhausted (%d instructions)" st.fuel;
  let rt = st.rt in
  let cost = st.cost in
  match ins with
  | Instr.Bin (r, op, a, b) ->
    if Instr.is_float_binop op then begin
      Runtime.charge rt cost.alu;
      fr.floats.(r) <- Sem.exec_fbin op (fval st fr a) (fval st fr b)
    end
    else begin
      (match op with
       | Instr.Mul | Instr.Div | Instr.Rem -> Runtime.charge rt cost.mul_div
       | _ -> Runtime.charge rt cost.alu);
      fr.ints.(r) <- Sem.exec_ibin op (ival st fr a) (ival st fr b)
    end
  | Instr.Cmp (r, op, a, b) ->
    Runtime.charge rt cost.alu;
    fr.ints.(r) <-
      (if value_is_floaty fr a || value_is_floaty fr b then
         Sem.exec_fcmp op (fval st fr a) (fval st fr b)
       else Sem.exec_icmp op (ival st fr a) (ival st fr b))
  | Instr.Mov (r, v) ->
    Runtime.charge rt cost.alu;
    if fr.fl.(r) then fr.floats.(r) <- fval st fr v
    else fr.ints.(r) <- ival st fr v
  | Instr.I2f (r, v) ->
    Runtime.charge rt cost.alu;
    fr.floats.(r) <- float_of_int (ival st fr v)
  | Instr.F2i (r, v) ->
    Runtime.charge rt cost.alu;
    fr.ints.(r) <- int_of_float (fval st fr v)
  | Instr.Load (r, ty, addr) ->
    let a = ival st fr addr in
    if Types.equal ty Types.F64 then fr.floats.(r) <- Runtime.read_f64 rt a
    else fr.ints.(r) <- Runtime.read_i64 rt a
  | Instr.Store (ty, addr, v) ->
    let a = ival st fr addr in
    if Types.equal ty Types.F64 then Runtime.write_f64 rt a (fval st fr v)
    else Runtime.write_i64 rt a (ival st fr v)
  | Instr.Gep (r, base, idx, scale) ->
    Runtime.charge rt cost.alu;
    fr.ints.(r) <- ival st fr base + (ival st fr idx * scale)
  | Instr.Malloc (r, size) ->
    fr.ints.(r) <- Runtime.ds_alloc rt ~handle:0 ~size:(ival st fr size)
  | Instr.Free v -> Runtime.free rt (ival st fr v)
  | Instr.Guard (k, addr) ->
    Runtime.guard rt ~write:(k = Instr.Gwrite) (ival st fr addr)
  | Instr.DsInit (r, sid) -> fr.ints.(r) <- Runtime.ds_init rt ~sid
  | Instr.DsAlloc (r, size, h) ->
    fr.ints.(r) <-
      Runtime.ds_alloc rt ~handle:(ival st fr h) ~size:(ival st fr size)
  | Instr.LoopCheck (r, bases) ->
    fr.ints.(r) <-
      (if Runtime.loop_check rt (List.map (ival st fr) bases) then 1 else 0)
  | Instr.Prefetch _ -> Runtime.charge rt cost.alu
  | Instr.Call (ropt, name, args) -> exec_call st fr ropt name args

and exec_call st fr ropt name args =
  let rt = st.rt in
  Runtime.charge rt st.cost.call;
  match name with
  | "print_int" ->
    let v = ival st fr (List.hd args) in
    Buffer.add_string st.out (string_of_int v);
    Buffer.add_char st.out '\n'
  | "print_float" ->
    let v = fval st fr (List.hd args) in
    Buffer.add_string st.out (Printf.sprintf "%.6g" v);
    Buffer.add_char st.out '\n'
  | "clock" -> begin
    match ropt with
    | Some r -> fr.ints.(r) <- Runtime.now rt
    | None -> ()
  end
  | "abort" -> trap "abort() called"
  | _ -> begin
    match Hashtbl.find_opt st.funcs name with
    | None -> trap "call to unknown function %s" name
    | Some callee ->
      let argv =
        try
          List.map2
            (fun (_, ty) v ->
              match ty with
              | Types.F64 -> AF (fval st fr v)
              | _ -> AI (ival st fr v))
            callee.params args
        with Invalid_argument _ ->
          trap "arity mismatch calling %s" name
      in
      let res = exec_function st callee argv in
      (match ropt with
       | Some r -> begin
         match res with
         | AF x ->
           if fr.fl.(r) then fr.floats.(r) <- x
           else fr.ints.(r) <- int_of_float x
         | AI x ->
           if fr.fl.(r) then fr.floats.(r) <- float_of_int x
           else fr.ints.(r) <- x
       end
       | None -> ())
  end

(* ---------- entry points ---------- *)

let lines_of buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun s -> s <> "")

let finish st res =
  { ret = (match res with AI x -> x | AF x -> int_of_float x);
    cycles = Runtime.now st.rt;
    instructions = st.executed;
    output = lines_of st.out }

(* Shared by both engines: a program that dies — an interpreter trap
   or a runtime error — triggers the flight recorder's post-mortem
   (when the sink armed one) before the exception propagates.  The
   runtime covers the other dump trigger (fault escalation) itself. *)
let with_postmortem st f =
  try f () with
  | (Trap _ | Runtime.Runtime_error _) as e ->
    let reason =
      match e with
      | Trap msg -> "program trapped: " ^ msg
      | Runtime.Runtime_error msg -> "runtime error: " ^ msg
      | _ -> "program died"
    in
    Runtime.maybe_postmortem st.rt ~reason;
    raise e

let run ?fuel ?(engine = Decoded) (m : Irmod.t) rt =
  let st = Sem.setup ?fuel m rt in
  with_postmortem st (fun () ->
      match engine with
      | Decoded -> finish st (Decode.run_main (Decode.prepare st m))
      | Reference -> (
        match Hashtbl.find_opt st.funcs "main" with
        | None -> trap "module has no main"
        | Some main -> finish st (exec_function st main [])))

let run_function ?fuel ?(engine = Decoded) (m : Irmod.t) rt name args =
  let st = Sem.setup ?fuel m rt in
  let argv = List.map (fun x -> AI x) args in
  with_postmortem st (fun () ->
      match engine with
      | Decoded ->
        finish st (Decode.run_function (Decode.prepare st m) name argv)
      | Reference -> (
        match Hashtbl.find_opt st.funcs name with
        | None -> trap "no function %s" name
        | Some f -> finish st (exec_function st f argv)))

(* ---------- sessions (the serving layer) ---------- *)

(* [Sem.setup] allocates and initializes globals, so [run]/[run_function]
   reset program state on every call.  A session runs setup (and, for
   the decoded engine, [Decode.prepare]) exactly once; each [call] then
   executes against the live heap and reports {e deltas} — the cycles,
   instructions, and output lines that call added. *)
type session = {
  st : Sem.state;
  decoded : Decode.t option; (* None = reference engine *)
  mutable out_taken : int;   (* chars of st.out already handed out *)
}

let session ?fuel ?(engine = Decoded) (m : Irmod.t) rt =
  let st = Sem.setup ?fuel m rt in
  let decoded =
    match engine with
    | Decoded -> Some (Decode.prepare st m)
    | Reference -> None
  in
  { st; decoded; out_taken = 0 }

let call s name args =
  let st = s.st in
  let c0 = Runtime.now st.rt and i0 = st.executed in
  let argv = List.map (fun x -> AI x) args in
  let res =
    with_postmortem st (fun () ->
        match s.decoded with
        | Some d -> Decode.run_function d name argv
        | None -> (
          match Hashtbl.find_opt st.funcs name with
          | None -> trap "no function %s" name
          | Some f -> exec_function st f argv))
  in
  let output =
    let len = Buffer.length st.out in
    let fresh = Buffer.sub st.out s.out_taken (len - s.out_taken) in
    s.out_taken <- len;
    String.split_on_char '\n' fresh |> List.filter (fun l -> l <> "")
  in
  { ret = (match res with AI x -> x | AF x -> int_of_float x);
    cycles = Runtime.now st.rt - c0;
    instructions = st.executed - i0;
    output }
