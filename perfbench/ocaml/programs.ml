(* The program workloads, chase and analytics: one MiniC program,
   compiled once, executed start to finish per operation. *)

module P = Cards.Pipeline
module R = Cards_runtime
module M = Cards_interp.Machine
module Stats = Cards_util.Stats
open Measure

type prog = {
  source : string;
  options : P.options;
  config : R.Runtime.config;
}

let kb x = x * 1024

let replace_once src ~sub ~by =
  let n = String.length src and k = String.length sub in
  let rec find i =
    if i + k > n then failwith (Printf.sprintf "workload source lacks %S" sub)
    else if String.sub src i k = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i ^ by ^ String.sub src (i + k) (n - i - k)

(* The program sees the benchmark seed only as its own RNG state. *)
let mc_seed seed = seed land 0x3FFF_FFFF

let seeded src ~literal seed =
  replace_once src
    ~sub:(Printf.sprintf "int rng_state = %d;" literal)
    ~by:(Printf.sprintf "int rng_state = %d;" (mc_seed seed))

(* Fig. 9's shuffled list chase, compiled with --factorize and run
   all-remotable at the layout section's cache:working-set ratio of
   1 MiB local / 768 KiB remotable per 16 Ki nodes. *)
let chase ~seed ~nodes =
  let src =
    In_channel.with_open_bin "examples/minic/fig9_list.mc" In_channel.input_all
  in
  let src =
    replace_once (seeded src ~literal:123456789 seed) ~sub:"int N = 16384;"
      ~by:(Printf.sprintf "int N = %d;" nodes)
  in
  let scale = nodes / 16384 in
  { source = src;
    options = { P.cards_options with factorize = true };
    config =
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = scale * kb 1024; remotable_bytes = scale * kb 768 } }

(* Working set in bytes (Mira's profiling run, summed over structures)
   per trip count.  Allocation sizes depend on the row count alone, not
   on the seed, so the size is a constant of the workload instead of a
   profiling run inside setup; the traced run re-measures it. *)
let analytics_wss = [ (50_000, 4_407_552); (100_000, 8_807_552) ]

(* The attr section's Fig. 8 configuration: Max-Use, local memory at
   half the working set plus the 256 KiB remotable cache. *)
let analytics ~seed ~trips =
  let remot = kb 256 in
  { source =
      seeded (Cards_workloads.Analytics.source ~trips ~query_passes:2)
        ~literal:424242 seed;
    options = P.cards_options;
    config =
      { R.Runtime.default_config with
        policy = R.Policy.Max_use; k = 1.0;
        local_bytes = (List.assoc trips analytics_wss / 2) + remot;
        remotable_bytes = remot } }

let all_local =
  { R.Runtime.default_config with
    policy = R.Policy.All_local; local_bytes = max_int / 2; remotable_bytes = 0 }

let execute ?obs p (c : P.compiled) =
  let rt = Tracer.span "runtime.create" (fun () -> R.Runtime.create ?obs p.config c.P.infos) in
  (Tracer.span "interp.run" (fun () -> M.run c.P.instrumented rt), rt)

(* Everything about one execution that must repeat bit for bit across
   runs of one seed, traced or not. *)
type sim = {
  res : M.result;
  counters : (string * int) list;
  lat_p50 : float;
  lat_p99 : float;
}

let sim_of (res, rt) =
  let lat = Cards_obs.Profile.merged_latency (R.Runtime.profile rt) in
  { res; counters = counters rt; lat_p50 = Stats.percentile lat 50.0;
    lat_p99 = Stats.percentile lat 99.0 }

(* The oracle: the reference engine on the frontend's module, before
   every CaRDS pass (factorization included) and without Decode, with
   everything local. *)
let oracle p =
  let m = Cards_ir.Minic.compile p.source in
  let r = M.run ~engine:M.Reference m (R.Runtime.create all_local [||]) in
  (r.M.ret, r.M.output)

let setup_reps = 41

(* Source to ready-to-run: compile, runtime creation, global setup and
   decoding. *)
let setup_once p =
  snd
    (timed (fun () ->
         let c = P.compile_source ~options:p.options p.source in
         let rt = R.Runtime.create p.config c.P.infos in
         Cards_interp.Decode.prepare
           (Cards_interp.Sem.setup c.P.instrumented rt)
           c.P.instrumented))

let end_to_end ~seconds p =
  let c = P.compile_source ~options:p.options p.source in
  let rss = ref 0.0 in
  let runs =
    repeat_for ~after_first:(fun () -> rss := peak_rss_mb ()) ~seconds (fun () ->
        sim_of (execute p c))
  in
  (* Set-up is timed in the warmed-up process: timed first, in a cold
     one, its median spread by 0.49 across ten runs on analytics, against
     0.09-0.42 in four sets warm. *)
  let setup_s = median (List.init setup_reps (fun _ -> Gc.full_major (); setup_once p)) in
  let first = fst (List.hd runs) in
  let wall = fastest (List.map snd runs) in
  let n = List.length runs in
  let repeatable = List.for_all (fun (s, _) -> s = first) runs in
  let agrees = (first.res.M.ret, first.res.M.output) = oracle p in
  let problems =
    (if repeatable then [] else [ "executions of one seed disagree" ])
    @ if agrees then [] else [ "output differs from the reference-engine oracle" ]
  in
  { correct = problems = []; attempted = n; failed = (if agrees then 0 else n);
    problems;
    metrics =
      [ m "setup_s" "s" setup_s;
        m "wall_s" "s" wall;
        m "minstr_per_s" "Minstr/s" (float_of_int first.res.M.instructions /. wall /. 1e6);
        m "req_per_s" "1/s" (1.0 /. wall);
        m "sim_mcycles" "Mcycles" (float_of_int first.res.M.cycles /. 1e6);
        (* An operation is one program run, so every operation of a seed
           takes the run's simulated time. *)
        m "sim_p50_kcycles" "kcycles" (float_of_int first.res.M.cycles /. 1e3);
        m "sim_p99_kcycles" "kcycles" (float_of_int first.res.M.cycles /. 1e3);
        m "peak_rss_mb" "MiB" !rss ] }

(* The committed snapshot each workload must reproduce at its committed
   size and seed: (tag, measured, committed). *)
let anchor_cycles p =
  let c = P.compile_source ~options:p.options p.source in
  (fst (P.run c p.config)).M.cycles

let chase_anchor () =
  ("layout-fig9-list-fact", anchor_cycles (chase ~seed:123456789 ~nodes:16384),
   1_704_676_066)

let analytics_anchor () =
  ("attr-analytics", anchor_cycles (analytics ~seed:424242 ~trips:50_000),
   516_610_092)

let wss_of (c : P.compiled) =
  Array.fold_left ( + ) 0 (Cards_baselines.Mira.profile c).Cards_baselines.Mira.per_sid_bytes

let traced ~anchor ?wss p =
  let problems = ref [] in
  let check ok msg = if not ok then problems := msg :: !problems in
  let tag, got, want = anchor () in
  check (got = want) (Printf.sprintf "anchor %s: %d cycles, committed %d" tag got want);
  let replay = Tracer.traced (fun () -> Compile_replay.run ~options:p.options p.source) in
  let c = P.compile_source ~options:p.options p.source in
  check (Compile_replay.matches c replay) "replayed compile differs from Pipeline.compile";
  Tracer.traced (fun () ->
      let rt = R.Runtime.create p.config c.P.infos in
      let st = Tracer.span "interp.setup" (fun () -> Cards_interp.Sem.setup c.P.instrumented rt) in
      ignore (Tracer.span "interp.decode" (fun () -> Cards_interp.Decode.prepare st c.P.instrumented)));
  let bare, bare_wall = timed (fun () -> sim_of (execute p c)) in
  let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  let traced, traced_wall = Tracer.traced (fun () -> timed (fun () -> sim_of (execute p c))) in
  let words = Gc.minor_words () -. w0
  and majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
  check (traced = bare) "traced execution differs from the bare one";
  let obs = Cards_obs.Sink.create ~span_rate:1.0 () in
  let spanned, spans_wall = timed (fun () -> sim_of (execute ~obs p c)) in
  check (spanned = bare) "execution under a span sink differs from the bare one";
  let nspans =
    match Cards_obs.Sink.spans obs with Some col -> Cards_obs.Span.length col | None -> 0
  in
  (* The interpreter alone: the guard-free module, everything local. *)
  let (plain, _), plain_wall =
    Tracer.traced (fun () ->
        timed (fun () -> Tracer.span "interp.run_plain" (fun () -> P.run_plain c all_local)))
  in
  check ((plain.M.ret, plain.M.output) = (bare.res.M.ret, bare.res.M.output))
    "all-local guard-free run prints something else";
  Option.iter
    (fun w ->
      let measured = wss_of c in
      check (measured = w) (Printf.sprintf "working set is %d bytes, constant says %d" measured w))
    wss;
  let agrees = (bare.res.M.ret, bare.res.M.output) = oracle p in
  check agrees "output differs from the reference-engine oracle";
  let instrs = float_of_int bare.res.M.instructions in
  { correct = !problems = []; attempted = 1; failed = (if agrees then 0 else 1);
    problems = List.rev !problems;
    metrics =
      Compile_replay.metrics [ replay ]
      @ [ m "interp.decode_ms" "ms" (Tracer.self_ms "interp.decode");
          m "interp.instructions" "count" instrs;
          m "interp.ns_per_instr" "ns"
            (plain_wall *. 1e9 /. float_of_int plain.M.instructions);
          m "interp.minor_words_per_instr" "words" (words /. instrs);
          m "interp.major_collections" "count" (float_of_int majors);
          m "runtime.overhead_s" "s" (bare_wall -. plain_wall);
          m "runtime.fetch_p50_kcycles" "kcycles" (bare.lat_p50 /. 1e3);
          m "runtime.fetch_p99_kcycles" "kcycles" (bare.lat_p99 /. 1e3) ]
      @ layer_metrics bare.counters
      @ [ m "obs.span_overhead_x" "x" (spans_wall /. bare_wall);
          m "obs.spans" "count" (float_of_int nspans);
          m "obs.trace_overhead_x" "x" (traced_wall /. bare_wall) ]
      @ not_exercised serve_layers }
