(* The differential test oracle for fault injection and for the
   pre-decoded execution engine.

   Fuzz-generated MiniC programs (the Test_fuzz generator) run through
   the plain guard-free interpreter and through the full CaRDS runtime
   across the whole resilience matrix:

     queue pairs {1, 2, 4} x batching {on, off} x fault rate {0, 5%, 20%}

   and every cell must (a) print bit-identical output — faults, retries,
   backoff waits and reliable-channel escalations perturb timing only,
   never data — and (b) keep the accounting identity exact:

     Profile.compute + Attribution.total = Runtime.now

   Each cell additionally runs under BOTH execution engines — the
   pre-decoded engine and the reference tree-walking interpreter — and
   the two must agree bit for bit on output, return value, simulated
   cycles, instruction count, the full runtime stats record, and the
   stall ledger's cause decomposition.  The engines share the runtime's
   one access path but interpret differently by design (closure arrays
   against a tree walk); this is what proves they are observationally
   the same machine.

   A wrong answer anywhere in the matrix is a retry bug (dropped or
   double-applied fetch), a degradation bug (prefetch suppression
   changing semantics), an accounting leak, or an engine divergence.
   Rate 0 cells double as the control group: they prove the fault
   plumbing itself is inert when disabled. *)

module R = Cards_runtime
module P = Cards.Pipeline
module B = Cards_baselines
module O = Cards_obs
module F = Cards_net.Fabric
module M = Cards_interp.Machine

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let kb x = x * 1024
let fuel = 30_000_000

let qps = [ 1; 2; 4 ]
let batchings = [ true; false ]
let rates = [ 0.0; 0.05; 0.2 ]

let cell_config ~qp ~batching ~rate =
  { R.Runtime.default_config with
    policy = R.Policy.Linear; k = 1.0;
    local_bytes = kb 16; remotable_bytes = kb 8;
    fabric_config =
      { R.Runtime.default_config.fabric_config with
        F.qp_count = qp;
        faults = { F.no_faults with F.fault_rate = rate; fault_seed = 99 } };
    batching }

let cell_name ~qp ~batching ~rate =
  Printf.sprintf "qp=%d batching=%b rate=%.2f" qp batching rate

(* Runs one program through every cell; returns true iff all cells
   match the reference and stay exact.  Raising compilation/interp
   errors is reported with the program text for reproduction. *)
let run_oracle seed =
  let src = Test_fuzz.gen_program seed in
  try
    let compiled = P.compile_source src in
    let reference, _ = B.Noguard.run ~fuel compiled in
    List.for_all
      (fun qp ->
        List.for_all
          (fun batching ->
            List.for_all
              (fun rate ->
                let cfg = cell_config ~qp ~batching ~rate in
                let res, rt = P.run ~fuel ~engine:M.Decoded compiled cfg in
                let prof = R.Runtime.profile rt in
                let ok =
                  res.output = reference.output
                  && O.Attribution.total (R.Runtime.attribution rt)
                     = R.Runtime.now rt - O.Profile.compute prof
                in
                if not ok then
                  QCheck.Test.fail_reportf
                    "seed %d diverged at %s\n\
                     output %S vs reference %S\n\
                     now %d, ledger %d, compute %d\n\
                     program:\n%s"
                    seed
                    (cell_name ~qp ~batching ~rate)
                    (String.concat "|" res.output)
                    (String.concat "|" reference.output)
                    (R.Runtime.now rt)
                    (O.Attribution.total (R.Runtime.attribution rt))
                    (O.Profile.compute prof) src;
                (* Engine identity: the same cell through the reference
                   tree-walking interpreter must be bit-identical in
                   every observable — result record (output, return
                   value, cycles, instructions), runtime stat counters,
                   and the stall ledger's cause decomposition. *)
                let res_r, rt_r =
                  P.run ~fuel ~engine:M.Reference compiled cfg
                in
                let engines_ok =
                  res = res_r
                  && R.Rt_stats.total (R.Runtime.stats rt)
                     = R.Rt_stats.total (R.Runtime.stats rt_r)
                  && O.Attribution.cause_totals (R.Runtime.attribution rt)
                     = O.Attribution.cause_totals (R.Runtime.attribution rt_r)
                  && O.Profile.compute prof
                     = O.Profile.compute (R.Runtime.profile rt_r)
                in
                if not engines_ok then
                  QCheck.Test.fail_reportf
                    "seed %d: engines diverged at %s\n\
                     decoded: %d cycles, %d instrs, ret %d, output %S\n\
                     reference: %d cycles, %d instrs, ret %d, output %S\n\
                     program:\n%s"
                    seed
                    (cell_name ~qp ~batching ~rate)
                    res.cycles res.instructions res.ret
                    (String.concat "|" res.output)
                    res_r.cycles res_r.instructions res_r.ret
                    (String.concat "|" res_r.output)
                    src;
                ok && engines_ok)
              rates)
          batchings)
      qps
  with
  | QCheck.Test.Test_fail _ as e -> raise e
  | exn ->
    QCheck.Test.fail_reportf "seed %d raised %s\nprogram:\n%s" seed
      (Printexc.to_string exn) src

let prop_oracle =
  QCheck.Test.make
    ~name:"fuzz programs agree across qp x batching x fault rate" ~count:12
    QCheck.(int_range 0 1_000_000)
    run_oracle

(* Pinned seeds reproduce without QCheck shrinking noise; seed 7
   generates a linked list, exercising the jump prefetcher (and its
   degradation-driven suppression) under faults. *)
let test_pinned_seeds () =
  List.iter
    (fun seed ->
      check Alcotest.bool (Printf.sprintf "seed %d" seed) true
        (run_oracle seed))
    [ 7; 42; 4096 ]

(* The fig9 list chase — a real workload, heavier than the fuzz
   programs — through the worst cell of the matrix. *)
let test_pointer_chase_worst_cell () =
  let compiled =
    P.compile_source
      (Cards_workloads.Pointer_chase.source ~variant:"list" ~scale:512
         ~passes:2)
  in
  let reference, _ = B.Noguard.run ~fuel compiled in
  let cfg = cell_config ~qp:1 ~batching:false ~rate:0.2 in
  let res, rt = P.run ~fuel ~engine:M.Decoded compiled cfg in
  check Alcotest.(list string) "output" reference.output res.output;
  let prof = R.Runtime.profile rt in
  check Alcotest.int "ledger exact"
    (R.Runtime.now rt - O.Profile.compute prof)
    (O.Attribution.total (R.Runtime.attribution rt));
  (* Both engines, bit for bit, on a real guard-heavy workload in the
     nastiest cell (single queue, no batching, 20% faults). *)
  let res_r, rt_r = P.run ~fuel ~engine:M.Reference compiled cfg in
  check Alcotest.int "engine cycles" res_r.cycles res.cycles;
  check Alcotest.int "engine instructions" res_r.instructions
    res.instructions;
  check Alcotest.(list string) "engine output" res_r.output res.output;
  check Alcotest.bool "engine stats" true
    (R.Rt_stats.total (R.Runtime.stats rt)
     = R.Rt_stats.total (R.Runtime.stats rt_r));
  check Alcotest.bool "engine stall causes" true
    (O.Attribution.cause_totals (R.Runtime.attribution rt)
     = O.Attribution.cause_totals (R.Runtime.attribution rt_r))

(* ---------- span reconciliation oracle ---------- *)

(* Causal tracing differentially, against the same matrix: each cell
   runs bare, then with span recording at rate 1.0, then at rate 0.5,
   on both engines.

     1. recording is read-only: the traced result record, stats and
        ledger are bit-identical to the bare run's;
     2. the span graph is well formed (ids unique, parent edges
        strictly backwards — acyclic);
     3. at rate 1.0 the per-phase span sums equal the ledger's cause
        totals exactly (Proto / Wire / Queue qp / Pf_wait / Retry /
        Trap);
     4. at any rate they never exceed them (sampling only drops
        occasions, it never invents cycles);
     5. the decoded and reference engines record the same Call spans
        (callee, entry and return cycle), in the same order. *)

let ledger_cause attr cause =
  List.fold_left
    (fun acc (c, v) -> if c = cause then acc + v else acc)
    0 (O.Attribution.cause_totals attr)

let check_reconciles ~cell ~exact col attr =
  let name what = Printf.sprintf "%s: %s %s" cell what
      (if exact then "exact" else "bounded") in
  let cmp what spans ledger =
    if exact then check Alcotest.int (name what) ledger spans
    else
      check Alcotest.bool (name what) true
        (spans <= ledger
         ||
         (Printf.eprintf "%s: span %s %d > ledger %d\n" cell what spans ledger;
          false))
  in
  check Alcotest.bool (cell ^ ": well formed") true (O.Span.well_formed col);
  let tot = O.Span.cpu_totals col in
  cmp "proto" tot.O.Span.tot_proto (ledger_cause attr O.Attribution.Proto);
  cmp "wire" tot.O.Span.tot_wire (ledger_cause attr O.Attribution.Wire);
  cmp "retry" tot.O.Span.tot_retry (ledger_cause attr O.Attribution.Retry);
  cmp "pf_wait" tot.O.Span.tot_pf_wait
    (ledger_cause attr O.Attribution.Pf_wait);
  cmp "trap" tot.O.Span.tot_trap (ledger_cause attr O.Attribution.Trap);
  Array.iteri
    (fun qp v ->
      cmp (Printf.sprintf "queue[%d]" qp) v
        (ledger_cause attr (O.Attribution.Queue qp)))
    tot.O.Span.tot_queue

let span_cell compiled ~qp ~batching ~rate =
  let cfg = cell_config ~qp ~batching ~rate in
  let calls_of engine =
    let cell =
      Printf.sprintf "%s %s" (cell_name ~qp ~batching ~rate)
        (match engine with M.Decoded -> "decoded" | M.Reference -> "ref")
    in
    let bare_res, bare_rt = P.run ~fuel ~engine compiled cfg in
    List.map
      (fun (span_rate, exact) ->
        let obs = O.Sink.create ~span_rate () in
        let res, rt = P.run ~fuel ~engine ~obs compiled cfg in
        check Alcotest.bool (cell ^ ": traced run identical") true
          (res = bare_res
           && R.Rt_stats.total (R.Runtime.stats rt)
              = R.Rt_stats.total (R.Runtime.stats bare_rt)
           && O.Attribution.cause_totals (R.Runtime.attribution rt)
              = O.Attribution.cause_totals (R.Runtime.attribution bare_rt));
        let col = Option.get (O.Sink.spans obs) in
        check_reconciles ~cell ~exact col (R.Runtime.attribution rt);
        List.filter_map
          (fun (s : O.Span.t) ->
            if s.sp_kind = O.Span.Call then
              Some (s.sp_fn, s.sp_issued, s.sp_complete)
            else None)
          (O.Span.spans col))
      [ (1.0, true); (0.5, false) ]
  in
  let decoded = calls_of M.Decoded in
  check Alcotest.bool (cell_name ~qp ~batching ~rate ^ ": calls recorded") true
    (List.for_all (fun calls -> calls <> []) decoded);
  check
    Alcotest.(list (list (triple string int int)))
    (cell_name ~qp ~batching ~rate ^ ": engines record the same calls")
    decoded (calls_of M.Reference)

(* The full matrix, both engines, on a real pointer chase (registered
   Slow; check.sh forces it on). *)
let test_span_matrix () =
  let compiled =
    P.compile_source
      (Cards_workloads.Pointer_chase.source ~variant:"list" ~scale:512
         ~passes:2)
  in
  List.iter
    (fun qp ->
      List.iter
        (fun batching ->
          List.iter (fun rate -> span_cell compiled ~qp ~batching ~rate) rates)
        batchings)
    qps

(* One nasty cell stays in the quick tier: single queue, no batching,
   20% faults — retries, escalations and trap-forced fetches all land
   in the span graph and must still reconcile. *)
let test_span_worst_cell () =
  let compiled =
    P.compile_source
      (Cards_workloads.Pointer_chase.source ~variant:"list" ~scale:512
         ~passes:2)
  in
  span_cell compiled ~qp:1 ~batching:false ~rate:0.2

let suite =
  [ ("pinned seeds, full matrix", `Slow, test_pinned_seeds);
    ("pc-list worst cell", `Quick, test_pointer_chase_worst_cell);
    ("span reconciliation, full matrix", `Slow, test_span_matrix);
    ("span reconciliation, worst cell", `Quick, test_span_worst_cell);
    qcheck prop_oracle ]
