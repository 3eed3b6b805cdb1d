(* Tests for the IR interpreter: semantics, traps, costs, fuel.
   Trap and semantics tests run under BOTH execution engines — the
   pre-decoded default and the reference tree-walker — and assert the
   same behaviour, message for message. *)

module I = Cards_ir
module R = Cards_runtime
module M = Cards_interp.Machine

let check = Alcotest.check

let engines = [ ("ref", M.Reference); ("decoded", M.Decoded) ]

let permissive_rt () =
  R.Runtime.create
    { R.Runtime.default_config with
      policy = R.Policy.All_local;
      local_bytes = max_int / 2;
      remotable_bytes = 0 }
    [||]

let run ?fuel ?engine src =
  let m = I.Minic.compile src in
  M.run ?fuel ?engine m (permissive_rt ())

let output ?fuel src = (run ?fuel src).output

(* The trap message a module produces under one engine, or [None] when
   it finishes cleanly. *)
let trap_of ?fuel ~engine m =
  match M.run ?fuel ~engine m (permissive_rt ()) with
  | (_ : M.result) -> None
  | exception M.Trap msg -> Some msg

(* Assert both engines trap with exactly the same message. *)
let check_trap_both ?fuel m expected =
  List.iter
    (fun (ename, engine) ->
      check Alcotest.(option string) ename (Some expected)
        (trap_of ?fuel ~engine m))
    engines

let check_trap_both_src ?fuel src expected =
  check_trap_both ?fuel (I.Minic.compile src) expected

(* ---------- arithmetic semantics ---------- *)

let test_int_ops () =
  check (Alcotest.list Alcotest.string) "ops"
    [ "13"; "-7"; "30"; "3"; "1" ]
    (output
       {|void main() {
           print_int(10 + 3);
           print_int(3 - 10);
           print_int(10 * 3);
           print_int(10 / 3);
           print_int(10 % 3);
         }|})

let test_float_ops () =
  check (Alcotest.list Alcotest.string) "float ops" [ "3.5"; "0.25"; "-1.5" ]
    (output
       {|void main() {
           print_float(1.75 * 2.0);
           print_float(1.0 / 4.0);
           print_float(0.5 - 2.0);
         }|})

let test_f2i_truncates () =
  check (Alcotest.list Alcotest.string) "truncation" [ "2"; "-2" ]
    (output
       {|void main() {
           int a = 2.9;
           int b = -2.9;
           print_int(a);
           print_int(b);
         }|})

let test_division_by_zero_traps () =
  check_trap_both_src "void main() { int z = 0; print_int(1 / z); }"
    "division by zero"

let test_rem_by_zero_traps () =
  check_trap_both_src "void main() { int z = 0; print_int(1 % z); }"
    "remainder by zero"

let test_abort_traps () =
  check_trap_both_src "void main() { abort(); }" "abort() called"

(* ---------- shift semantics ---------- *)

(* MiniC defines shifts with the count taken mod 64; values are 63-bit
   native ints, so a masked count of 63 (unspecified for OCaml's own
   [lsl]/[asr]) is defined to shift every magnitude bit out: [shl] by
   63 gives 0, [shr] by 63 gives the sign.  The frontend has no shift
   surface syntax, so the boundary counts — 0, 62, 63, and 64 (which
   masks back to 0) — are driven through hand-built IR, under both
   engines. *)
let shift_module cases =
  let b = I.Builder.create ~name:"main" ~params:[] ~ret:I.Types.Void in
  List.iter
    (fun (op, a, s) ->
      let r =
        I.Builder.bin b op (I.Instr.Imm (Int64.of_int a))
          (I.Instr.Imm (Int64.of_int s))
      in
      I.Builder.call_void b "print_int" [ r ])
    cases;
  I.Builder.ret b None;
  I.Irmod.add_func I.Irmod.empty (I.Builder.finish b)

let shift_cases =
  [ (I.Instr.Shl, 5, 0); (I.Instr.Shl, 5, 62); (I.Instr.Shl, 5, 63);
    (I.Instr.Shl, 5, 64); (I.Instr.Shl, -5, 62); (I.Instr.Shl, -5, 63);
    (I.Instr.Shr, 5, 0); (I.Instr.Shr, 5, 62); (I.Instr.Shr, 5, 63);
    (I.Instr.Shr, 5, 64); (I.Instr.Shr, -5, 62); (I.Instr.Shr, -5, 63);
    (I.Instr.Shr, -5, 64) ]

let shift_expected =
  [ "5"; "-4611686018427387904"; "0"; "5"; "-4611686018427387904"; "0";
    "5"; "0"; "0"; "5"; "-1"; "-1"; "-5" ]

let test_shift_boundaries () =
  let m = shift_module shift_cases in
  List.iter
    (fun (ename, engine) ->
      let res = M.run ~engine m (permissive_rt ()) in
      check Alcotest.(list string) ename shift_expected res.output)
    engines

(* ---------- fuel ---------- *)

let test_fuel_stops_infinite_loop () =
  check_trap_both_src ~fuel:10_000 "void main() { while (1) { } }"
    "fuel exhausted (10000 instructions)"

let test_fuel_enough () =
  check (Alcotest.list Alcotest.string) "completes under fuel" [ "42" ]
    (output ~fuel:1_000_000 "void main() { print_int(42); }")

(* ---------- cycles & instruction counting ---------- *)

let test_cycles_monotone_in_work () =
  let small = run "void main() { for (int i = 0; i < 10; i = i + 1) { } }" in
  let big = run "void main() { for (int i = 0; i < 1000; i = i + 1) { } }" in
  check Alcotest.bool "more work, more cycles" true (big.cycles > small.cycles);
  check Alcotest.bool "more work, more instructions" true
    (big.instructions > small.instructions)

let test_clock_intrinsic () =
  let out =
    output
      {|void main() {
          int t0 = clock();
          for (int i = 0; i < 100; i = i + 1) { }
          int t1 = clock();
          if (t1 > t0) { print_int(1); } else { print_int(0); }
        }|}
  in
  check (Alcotest.list Alcotest.string) "clock advances" [ "1" ] out

let test_determinism () =
  let src = Cards_workloads.Bfs.source ~nodes:500 ~edges:2000 ~sources:1 in
  let a = run src and b = run src in
  check Alcotest.bool "same cycles" true (a.cycles = b.cycles);
  check (Alcotest.list Alcotest.string) "same output" a.output b.output

(* ---------- guard instructions under the machine ---------- *)

let test_run_function_entry () =
  let m =
    I.Minic.compile "int twice(int x) { return 2 * x; } void main() { }"
  in
  let res = M.run_function m (permissive_rt ()) "twice" [ 21 ] in
  check Alcotest.int "direct function call" 42 res.ret

let test_unknown_function_traps () =
  let m = I.Minic.compile "void main() { }" in
  List.iter
    (fun (ename, engine) ->
      match M.run_function ~engine m (permissive_rt ()) "nope" [] with
      | _ -> Alcotest.fail (ename ^ ": expected trap")
      | exception M.Trap msg ->
        check Alcotest.string ename "no function nope" msg)
    engines

(* ---------- trap-path parity on hand-built IR ----------

   The frontend cannot produce these shapes (it rejects unknown
   callees, wrong arities, and has no unreachable statement), but the
   interpreters must still handle them — at execution time, with the
   same message under both engines.  Decode in particular must not
   reject them at load time: dead bad code stays inert. *)

let func ~name ~params ~ret ~reg_tys blocks : I.Func.t =
  { name; params; ret; reg_tys; blocks = Array.of_list blocks }

let block bid instrs term : I.Func.block =
  { bid; instrs = Array.of_list instrs; term }

let mod_of funcs =
  List.fold_left I.Irmod.add_func I.Irmod.empty funcs

let test_unknown_callee_traps () =
  let m =
    mod_of
      [ func ~name:"main" ~params:[] ~ret:I.Types.Void ~reg_tys:[||]
          [ block 0 [ I.Instr.Call (None, "nope", []) ] (I.Instr.Ret None) ] ]
  in
  check_trap_both m "call to unknown function nope"

let test_arity_mismatch_traps () =
  let m =
    mod_of
      [ func ~name:"id" ~params:[ (0, I.Types.I64) ] ~ret:I.Types.I64
          ~reg_tys:[| I.Types.I64 |]
          [ block 0 [] (I.Instr.Ret (Some (I.Instr.Reg 0))) ];
        func ~name:"main" ~params:[] ~ret:I.Types.Void ~reg_tys:[||]
          [ block 0 [ I.Instr.Call (None, "id", []) ] (I.Instr.Ret None) ] ]
  in
  check_trap_both m "arity mismatch calling id"

let test_unreachable_traps () =
  let m =
    mod_of
      [ func ~name:"main" ~params:[] ~ret:I.Types.Void ~reg_tys:[||]
          [ block 0 [] I.Instr.Unreachable ] ]
  in
  check_trap_both m "reached unreachable in main:L0"

(* Bad code behind a never-taken branch must run cleanly under both
   engines — traps happen at execution, never at decode. *)
let test_dead_bad_code_is_inert () =
  let b = I.Builder.create ~name:"main" ~params:[] ~ret:I.Types.Void in
  let dead = I.Builder.new_block b in
  let live = I.Builder.new_block b in
  I.Builder.cbr b (I.Instr.Imm 0L) dead live;
  I.Builder.set_block b dead;
  I.Builder.call_void b "nope" [ I.Instr.Fimm 1.0 ];
  I.Builder.br b live;
  I.Builder.set_block b live;
  I.Builder.call_void b "print_int" [ I.Instr.Imm 7L ];
  I.Builder.ret b None;
  let m = I.Irmod.add_func I.Irmod.empty (I.Builder.finish b) in
  List.iter
    (fun (ename, engine) ->
      let res = M.run ~engine m (permissive_rt ()) in
      check Alcotest.(list string) ename [ "7" ] res.output)
    engines

(* ---------- call frames ----------

   The decoded engine takes each callee's frame from a per-function
   stack that lives as long as the session and reuses it.  Every test
   here runs both engines: the reference builds a fresh frame per
   call, so it is the oracle. *)

(* Every activation keeps its own registers: [n] and [d] are live
   across the recursive call. *)
let test_deep_recursion () =
  let m =
    I.Minic.compile
      {|int sum(int n) {
          if (n == 0) { return 0; }
          int r = sum(n - 1);
          return r + n;
        }
        double halves(int n) {
          if (n == 0) { return 0.0; }
          double d = 0.5;
          return halves(n - 1) + d;
        }
        int main() {
          print_float(halves(10000));
          return sum(10000);
        }|}
  in
  let want = M.run ~engine:M.Reference m (permissive_rt ()) in
  check Alcotest.int "reference sum" 50005000 want.ret;
  check Alcotest.(list string) "reference halves" [ "5000" ] want.output;
  let got = M.run ~engine:M.Decoded m (permissive_rt ()) in
  check Alcotest.int "decoded sum" want.ret got.ret;
  check Alcotest.(list string) "decoded halves" want.output got.output

(* A trap three frames deep leaves nothing behind in the session. *)
let test_trap_then_call_in_session () =
  let m =
    I.Minic.compile
      {|int leaf(int x) { if (x < 0) { abort(); } return x * 2; }
        int mid(int x) { int y = leaf(x); return y + 1; }
        int top(int x) { int z = mid(x); return z + 3; }
        void main() { }|}
  in
  List.iter
    (fun (ename, engine) ->
      let fresh = M.call (M.session ~engine m (permissive_rt ())) "top" [ 5 ] in
      let s = M.session ~engine m (permissive_rt ()) in
      (match M.call s "top" [ -1 ] with
       | _ -> Alcotest.fail (ename ^ ": expected a trap")
       | exception M.Trap msg ->
         check Alcotest.string (ename ^ ": trap") "abort() called" msg);
      let after = M.call s "top" [ 5 ] in
      check Alcotest.int (ename ^ ": ret") 14 fresh.ret;
      check Alcotest.int (ename ^ ": same ret") fresh.ret after.ret;
      check Alcotest.int (ename ^ ": same cycles") fresh.cycles after.cycles;
      check Alcotest.int (ename ^ ": same instructions") fresh.instructions
        after.instructions)
    engines

(* A register read before any write reads zero, in a reused frame too.
   [probe c] writes int register 1 and float register 2 only when [c]
   is non-zero, prints the int and returns the float. *)
let test_reused_frame_is_zeroed () =
  let open I.Instr in
  let i64 = I.Types.I64 and f64 = I.Types.F64 in
  let probe =
    func ~name:"probe" ~params:[ (0, i64) ] ~ret:f64
      ~reg_tys:[| i64; i64; f64 |]
      [ block 0 [] (Cbr (Reg 0, 1, 2));
        block 1 [ Mov (1, Imm 7L); Mov (2, Fimm 2.5) ] (Br 2);
        block 2 [ Call (None, "print_int", [ Reg 1 ]) ] (Ret (Some (Reg 2))) ]
  in
  let main =
    func ~name:"main" ~params:[] ~ret:i64 ~reg_tys:[| f64; f64 |]
      [ block 0
          [ Call (Some 0, "probe", [ Imm 1L ]);
            Call (Some 1, "probe", [ Imm 0L ]);
            Call (None, "print_float", [ Reg 0 ]);
            Call (None, "print_float", [ Reg 1 ]) ]
          (Ret (Some (Imm 0L))) ]
  in
  let m = mod_of [ probe; main ] in
  List.iter
    (fun (ename, engine) ->
      let res = M.run ~engine m (permissive_rt ()) in
      check Alcotest.(list string) (ename ^ ": nested calls")
        [ "7"; "0"; "2.5"; "0" ] res.output;
      (* top-level calls of one session reuse the entry frame *)
      let s = M.session ~engine m (permissive_rt ()) in
      let took = M.call s "probe" [ 1 ] in
      let skipped = M.call s "probe" [ 0 ] in
      check Alcotest.(list string) (ename ^ ": took the branch") [ "7" ]
        took.output;
      check Alcotest.int (ename ^ ": float returned") 2 took.ret;
      check Alcotest.(list string) (ename ^ ": skipped it") [ "0" ]
        skipped.output;
      check Alcotest.int (ename ^ ": zero returned") 0 skipped.ret)
    engines

(* ---------- engine identity on plain semantics ---------- *)

let test_engines_identical_on_workload () =
  let src = Cards_workloads.Bfs.source ~nodes:400 ~edges:1600 ~sources:2 in
  let m = I.Minic.compile src in
  let d = M.run ~engine:M.Decoded m (permissive_rt ()) in
  let r = M.run ~engine:M.Reference m (permissive_rt ()) in
  check Alcotest.int "cycles" r.cycles d.cycles;
  check Alcotest.int "instructions" r.instructions d.instructions;
  check Alcotest.int "ret" r.ret d.ret;
  check Alcotest.(list string) "output" r.output d.output

let test_output_order () =
  check (Alcotest.list Alcotest.string) "print interleaving"
    [ "1"; "2.5"; "3" ]
    (output
       {|void main() {
           print_int(1);
           print_float(2.5);
           print_int(3);
         }|})

let suite =
  [ ("int ops", `Quick, test_int_ops);
    ("float ops", `Quick, test_float_ops);
    ("f2i truncates", `Quick, test_f2i_truncates);
    ("div by zero traps", `Quick, test_division_by_zero_traps);
    ("rem by zero traps", `Quick, test_rem_by_zero_traps);
    ("abort traps", `Quick, test_abort_traps);
    ("shift boundaries", `Quick, test_shift_boundaries);
    ("fuel stops runaway", `Quick, test_fuel_stops_infinite_loop);
    ("fuel generous", `Quick, test_fuel_enough);
    ("cycles monotone", `Quick, test_cycles_monotone_in_work);
    ("clock intrinsic", `Quick, test_clock_intrinsic);
    ("determinism", `Quick, test_determinism);
    ("run_function", `Quick, test_run_function_entry);
    ("unknown function traps", `Quick, test_unknown_function_traps);
    ("unknown callee traps", `Quick, test_unknown_callee_traps);
    ("arity mismatch traps", `Quick, test_arity_mismatch_traps);
    ("unreachable traps", `Quick, test_unreachable_traps);
    ("dead bad code inert", `Quick, test_dead_bad_code_is_inert);
    ("deep recursion", `Quick, test_deep_recursion);
    ("trap then call in a session", `Quick, test_trap_then_call_in_session);
    ("reused frame is zeroed", `Quick, test_reused_frame_is_zeroed);
    ("engines identical on workload", `Quick, test_engines_identical_on_workload);
    ("output order", `Quick, test_output_order) ]
