(* Differential fuzzing: generate random (but well-defined) MiniC
   programs and check that every far-memory configuration — CaRDS under
   each policy, TrackFM, Mira, tight memory, adaptive prefetch —
   computes exactly what the guard-free all-local execution computes.

   This exercises the whole stack end to end: frontend, DSA, pool
   allocation, guard insertion/elimination, versioning, the runtime's
   pinning/demotion/eviction/prefetch machinery, and the interpreter.
   A divergence anywhere (a mis-eliminated guard, a wrong handle, a
   cache bug) shows up as a wrong answer. *)

module Rng = Cards_util.Rng
module R = Cards_runtime
module P = Cards.Pipeline
module B = Cards_baselines
module O = Cards_obs

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---------- program generator ---------- *)

(* Emits a MiniC program built from a seed:
   - a few global scalars,
   - 2-5 heap arrays (int or double) of small random sizes,
   - 1-3 helper functions walking arrays with random (but in-bounds)
     index expressions, some strided, some gather-style,
   - optionally a linked list built and traversed,
   - a main that allocates, calls helpers in random order (some calls
     inside loops), and prints accumulated checksums. *)
let gen_program seed =
  let rng = Rng.create (seed * 2654435761 + 13) in
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_arrays = 2 + Rng.int rng 4 in
  let arrays =
    List.init n_arrays (fun i ->
        let name = Printf.sprintf "arr%d" i in
        let elems = 8 + Rng.int rng 57 in
        let is_float = Rng.bool rng in
        (name, elems, is_float))
  in
  let with_list = Rng.int rng 3 = 0 in
  (* globals *)
  let n_globals = 1 + Rng.int rng 3 in
  for g = 0 to n_globals - 1 do
    out "int g%d = %d;\n" g (1 + Rng.int rng 9)
  done;
  if with_list then
    out
      "struct Node { int v; struct Node *next; }\n\
       struct Node *mklist(int n) {\n\
      \  struct Node *h = null;\n\
      \  for (int i = 0; i < n; i = i + 1) {\n\
      \    struct Node *e = malloc(sizeof(struct Node));\n\
      \    e->v = i * 3 + 1;\n\
      \    e->next = h;\n\
      \    h = e;\n\
      \  }\n\
      \  return h;\n\
       }\n\
       int lsum(struct Node *h) {\n\
      \  int acc = 0;\n\
      \  struct Node *p = h;\n\
      \  while (p != null) { acc = acc + p->v; p = p->next; }\n\
      \  return acc;\n\
       }\n";
  (* helper functions: each takes one array and its length *)
  let n_helpers = 1 + Rng.int rng 3 in
  let helpers =
    List.init n_helpers (fun h ->
        let _, _, is_float = List.nth arrays (Rng.int rng n_arrays) in
        let ty = if is_float then "double" else "int" in
        let name = Printf.sprintf "work%d" h in
        let a_mul = 1 + Rng.int rng 5 in
        let a_add = Rng.int rng 7 in
        let stride_or_gather = Rng.bool rng in
        out "%s %s(%s *a, int n) {\n" ty name ty;
        out "  %s acc = 0%s;\n" ty (if is_float then ".0" else "");
        if stride_or_gather then begin
          (* strided read-modify-write sweep *)
          out "  for (int i = 0; i < n; i = i + 1) {\n";
          out "    a[i] = a[i] + %d%s;\n" a_add (if is_float then ".0" else "");
          out "    acc = acc + a[i];\n";
          out "  }\n"
        end
        else begin
          (* gather with a linear-congruential index (always in bounds) *)
          out "  for (int i = 0; i < n; i = i + 1) {\n";
          out "    int j = (i * %d + %d) %% n;\n" a_mul a_add;
          out "    acc = acc + a[j];\n";
          out "  }\n"
        end;
        out "  return acc;\n}\n";
        (name, is_float))
  in
  (* main *)
  out "void main() {\n";
  List.iter
    (fun (name, elems, is_float) ->
      let ty = if is_float then "double" else "int" in
      out "  %s *%s = malloc(%d * 8);\n" ty name elems;
      out "  for (int i = 0; i < %d; i = i + 1) { %s[i] = %s; }\n" elems name
        (if is_float then "0.5 * i" else "i * 2 + 1"))
    arrays;
  if with_list then begin
    let n = 5 + Rng.int rng 20 in
    out "  struct Node *lst = mklist(%d);\n" n
  end;
  out "  double total = 0.0;\n";
  (* a few call statements, some wrapped in loops *)
  let n_calls = 2 + Rng.int rng 5 in
  for _ = 1 to n_calls do
    let hname, h_float = List.nth helpers (Rng.int rng n_helpers) in
    (* pick an array with matching element type *)
    let candidates = List.filter (fun (_, _, f) -> f = h_float) arrays in
    match candidates with
    | [] -> ()
    | _ ->
      let aname, elems, _ = List.nth candidates (Rng.int rng (List.length candidates)) in
      if Rng.int rng 2 = 0 then begin
        let reps = 1 + Rng.int rng 3 in
        out "  for (int r = 0; r < %d; r = r + 1) {\n" reps;
        out "    total = total + %s(%s, %d);\n" hname aname elems;
        out "  }\n"
      end
      else out "  total = total + %s(%s, %d);\n" hname aname elems
  done;
  if with_list then out "  total = total + lsum(lst);\n";
  out "  print_float(total);\n";
  (* also print one raw array cell per array for stronger checking *)
  List.iter
    (fun (name, elems, is_float) ->
      if is_float then out "  print_float(%s[%d]);\n" name (elems - 1)
      else out "  print_int(%s[%d]);\n" name (elems - 1))
    arrays;
  out "}\n";
  Buffer.contents buf

(* ---------- the differential property ---------- *)

let kb x = x * 1024

let configs =
  [ (fun () ->
      { R.Runtime.default_config with
        policy = R.Policy.Linear; k = 1.0;
        local_bytes = kb 64; remotable_bytes = kb 16 });
    (fun () ->
      { R.Runtime.default_config with
        policy = R.Policy.Max_use; k = 0.5;
        local_bytes = kb 16; remotable_bytes = kb 8 });
    (fun () ->
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = kb 8; remotable_bytes = kb 4;
        prefetch_mode = R.Runtime.Pf_adaptive });
    (fun () ->
      { R.Runtime.default_config with
        policy = R.Policy.Random 3; k = 0.5;
        local_bytes = kb 8; remotable_bytes = kb 4;
        prefetch_mode = R.Runtime.Pf_none }) ]

(* The batched-fabric matrix: the transport is a timing model only, so
   program outputs must be bit-identical across queue-pair counts and
   with batching on or off, and both exactness invariants — the
   profiler's (compute + Σ wall buckets = now) and the stall ledger's
   (Σ causes = now - compute) — must survive batch completions. *)
let fabric_matrix =
  List.concat_map
    (fun qp ->
      List.map
        (fun batching () ->
          { R.Runtime.default_config with
            policy = R.Policy.Linear; k = 1.0;
            local_bytes = kb 16; remotable_bytes = kb 8;
            fabric_config =
              { R.Runtime.default_config.fabric_config with
                Cards_net.Fabric.qp_count = qp };
            batching })
        [ true; false ])
    [ 1; 2; 4 ]

let fuel = 30_000_000

let run_differential seed =
  let src = gen_program seed in
  try
    let compiled = P.compile_source src in
    let reference, _ = B.Noguard.run ~fuel compiled in
    List.for_all
      (fun mk ->
        let res, _ = P.run ~fuel compiled (mk ()) in
        res.output = reference.output)
      configs
    && List.for_all
         (fun mk ->
           let res, rt = P.run ~fuel compiled (mk ()) in
           res.output = reference.output
           && O.Attribution.total (R.Runtime.attribution rt)
              = R.Runtime.now rt - O.Profile.compute (R.Runtime.profile rt))
         fabric_matrix
    && (let tfm = B.Trackfm.compile_source src in
        let res, _ = B.Trackfm.run ~fuel tfm ~local_bytes:(kb 32) in
        res.output = reference.output)
    && (let res, _ =
          B.Mira.run ~fuel compiled ~local_bytes:(kb 32)
            ~remotable_bytes:(kb 8)
        in
        res.output = reference.output)
  with exn ->
    QCheck.Test.fail_reportf "seed %d raised %s\nprogram:\n%s" seed
      (Printexc.to_string exn) src

let prop_differential =
  QCheck.Test.make ~name:"random programs agree across all systems" ~count:60
    QCheck.(int_range 0 1_000_000)
    run_differential

(* A couple of pinned seeds so failures reproduce in CI without QCheck
   shrinking noise. *)
let test_pinned_seeds () =
  List.iter
    (fun seed ->
      check Alcotest.bool (Printf.sprintf "seed %d" seed) true
        (run_differential seed))
    [ 1; 7; 42; 1337; 98765 ]

(* Fault injection is PRNG-scheduled, never wall-clock-scheduled: the
   same program under the same fault seed must reproduce the cycle
   count exactly, retries, backoff waits and escalations included —
   and a different fault seed must (at a 20% rate on a fetch-heavy
   config) actually move the clock, proving the schedule is live. *)
let test_fault_seed_determinism () =
  let faulty_cfg fault_seed =
    { R.Runtime.default_config with
      policy = R.Policy.All_remotable; k = 0.0;
      local_bytes = kb 8; remotable_bytes = kb 4;
      fabric_config =
        { R.Runtime.default_config.fabric_config with
          Cards_net.Fabric.faults =
            { Cards_net.Fabric.no_faults with
              Cards_net.Fabric.fault_rate = 0.2; fault_seed } } }
  in
  List.iter
    (fun seed ->
      let compiled = P.compile_source (gen_program seed) in
      let a, _ = P.run ~fuel compiled (faulty_cfg 5) in
      let b, _ = P.run ~fuel compiled (faulty_cfg 5) in
      check Alcotest.int
        (Printf.sprintf "seed %d: same fault seed, same cycles" seed)
        a.cycles b.cycles;
      check Alcotest.(list string)
        (Printf.sprintf "seed %d: same fault seed, same output" seed)
        a.output b.output)
    [ 7; 42; 1337 ];
  let compiled = P.compile_source (gen_program 7) in
  let a, _ = P.run ~fuel compiled (faulty_cfg 5) in
  let c, _ = P.run ~fuel compiled (faulty_cfg 6) in
  check Alcotest.(list string) "different fault seed, same output" a.output
    c.output;
  check Alcotest.bool "different fault seed, different schedule" true
    (a.cycles <> c.cycles)

let test_generator_is_deterministic () =
  check Alcotest.string "same seed, same program" (gen_program 11) (gen_program 11);
  check Alcotest.bool "different seeds differ" true
    (gen_program 11 <> gen_program 12)

let suite =
  [ ("generator deterministic", `Quick, test_generator_is_deterministic);
    ("pinned seeds", `Quick, test_pinned_seeds);
    ("fault seed determinism", `Quick, test_fault_seed_determinism);
    qcheck prop_differential ]
