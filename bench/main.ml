(* CaRDS evaluation harness.

   Regenerates every table and figure of the paper's evaluation
   section, plus the ablations DESIGN.md calls out.  Absolute numbers
   come from a cycle-cost simulator calibrated to the paper's Table 1;
   the claims under test are the *shapes*: who wins, by what factor,
   and where the crossovers sit.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig8 fig9 # selected experiments

   Sections: table1 fig4 fig5 fig6 fig7 fig8 fig9 fabric profile attr
   faults spans ablations bechamel host

   `--json FILE` additionally records every experiment the chosen
   sections register (tag, total cycles, fabric counters) as a JSON
   snapshot, so successive PRs leave comparable perf records.

   `--compare BASELINE.json [--tolerance F]` diffs the experiments this
   invocation registers against a committed snapshot (relative
   tolerance, default 2%) and exits non-zero on any deviation — the
   regression gate scripts/check.sh runs against BENCH_fabric.json,
   BENCH_attr.json, BENCH_faults.json, BENCH_spans.json and
   BENCH_host.json.  The
   baseline is read before `--json` rewrites it, so `--json X
   --compare X` gates and refreshes in one run. *)

module R = Cards_runtime
module P = Cards.Pipeline
module W = Cards_workloads
module B = Cards_baselines
module T = Cards_util.Table
module J = Cards_util.Json
module O = Cards_obs

let kb x = x * 1024
let mcycles c = Printf.sprintf "%.1f" (float_of_int c /. 1e6)
let fx r = T.fmt_speedup r

let header title = Printf.printf "\n==== %s ====\n\n%!" title

(* ---------- JSON perf snapshot (--json FILE) ---------- *)

let json_out : string option ref = ref None
let compare_to : string option ref = ref None
let tolerance = ref 0.02
let experiments : J.t list ref = ref []

let fabric_json (fs : Cards_net.Fabric.stats) =
  J.Obj
    [ ("fetches", J.Int fs.fetches);
      ("fetched_bytes", J.Int fs.fetched_bytes);
      ("batches", J.Int fs.batches);
      ("batched_objects", J.Int fs.batched_objects);
      ("writebacks", J.Int fs.writebacks);
      ("written_bytes", J.Int fs.written_bytes);
      ("wb_batches", J.Int fs.wb_batches);
      ("queue_in_cycles", J.Int fs.queue_in_cycles);
      ("queue_out_cycles", J.Int fs.queue_out_cycles);
      ("qp_queue_cycles",
       J.List (Array.to_list (Array.map (fun c -> J.Int c) fs.qp_queue_cycles)));
      ("faults_transient", J.Int fs.faults_transient);
      ("faults_late", J.Int fs.faults_late);
      ("faults_dup", J.Int fs.faults_dup);
      ("failed_fetches", J.Int fs.failed_fetches);
      ("reliable_fetches", J.Int fs.reliable_fetches);
      ("wb_faults", J.Int fs.wb_faults) ]

let record_experiment ~tag ~cycles rt =
  experiments :=
    J.Obj
      [ ("tag", J.Str tag); ("cycles", J.Int cycles);
        ("fabric", fabric_json (R.Runtime.fabric_stats rt)) ]
    :: !experiments

let current_doc () = J.Obj [ ("experiments", J.List (List.rev !experiments)) ]

let write_json () =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (J.to_string (current_doc ()));
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "-- recorded %d experiments to %s\n"
        (List.length !experiments) path)
    !json_out

let cards_cfg ?(policy = R.Policy.Linear) ~k ~local ~remot () =
  { R.Runtime.default_config with
    policy; k; local_bytes = local; remotable_bytes = remot }

let run_cycles compiled cfg =
  let res, _ = P.run compiled cfg in
  res.cycles

(* Working-set size measured from a profiling run (exact, not
   estimated). *)
let wss_of compiled =
  let prof = B.Mira.profile compiled in
  Array.fold_left ( + ) 0 prof.B.Mira.per_sid_bytes

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------- workload fixtures shared by the gated sections ---------- *)

(* The fig9 chase suite's [pc-<variant>] with half its working set
   local and a quarter of that remotable. *)
let pc_fixture ?(scale = 16384) variant =
  let compiled =
    P.compile_source (W.Pointer_chase.source ~variant ~scale ~passes:2)
  in
  let local = wss_of compiled / 2 in
  (compiled, cards_cfg ~k:1.0 ~local ~remot:(local / 4) ())

(* The fig8 analytics workload at 50 K trips under Max-Use, with half
   its working set plus a 256 KiB remotable cache local. *)
let analytics_fixture () =
  let compiled =
    P.compile_source (W.Analytics.source ~trips:50000 ~query_passes:2)
  in
  let remot = kb 256 in
  let local = (wss_of compiled / 2) + remot in
  (compiled, cards_cfg ~policy:R.Policy.Max_use ~k:1.0 ~local ~remot ())

(* [cfg] on a fabric that injects faults at [rate] from seed 7. *)
let seed7_faults ~rate cfg =
  { cfg with
    R.Runtime.fabric_config =
      { cfg.R.Runtime.fabric_config with
        Cards_net.Fabric.faults =
          { Cards_net.Fabric.no_faults with
            Cards_net.Fabric.fault_rate = rate; fault_seed = 7 } } }

(* One cause's stall over the whole ledger. *)
let cause_total attr cause =
  Option.value ~default:0
    (List.assoc_opt cause (O.Attribution.cause_totals attr))

(* ---------------------------------------------------------------- *)
(* Table 1: primitive overheads, median cycles over 100 trials.     *)
(* ---------------------------------------------------------------- *)

let table1 () =
  header "Table 1: primitive overheads (median cycles over 100 trials)";
  let median_of f =
    let s = Cards_util.Stats.create () in
    for _ = 1 to 100 do
      Cards_util.Stats.add s (float_of_int (f ()))
    done;
    Cards_util.Stats.median s
  in
  let trial ~cost ~fabric ~write ~remote () =
    let info =
      { (R.Static_info.default ~sid:0) with prefetch = R.Static_info.No_prefetch }
    in
    let rt =
      R.Runtime.create
        { R.Runtime.default_config with
          policy = R.Policy.All_remotable; k = 0.0;
          local_bytes = kb 64; remotable_bytes = kb 8;
          cost; fabric_config = fabric; prefetch_mode = R.Runtime.Pf_none }
        [| info |]
    in
    let h = R.Runtime.ds_init rt ~sid:0 in
    let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
    if remote then begin
      (* Evict the object (the extra allocations spend its second
         chance, then reclaim it). *)
      let _ = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
      let _ = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
      ()
    end
    else
      (* Warm it: a touched object is definitely resident. *)
      R.Runtime.guard rt ~write:false a;
    let t0 = R.Runtime.now rt in
    R.Runtime.guard rt ~write a;
    R.Runtime.now rt - t0
  in
  let t = T.create ~title:"Runtime event costs"
      ~header:[ "Runtime Event"; "Local Cost"; "Remote Cost"; "Paper (L/R)" ] in
  let row name cost fabric write paper =
    let local = median_of (trial ~cost ~fabric ~write ~remote:false) in
    let remote = median_of (trial ~cost ~fabric ~write ~remote:true) in
    T.add_row t [ name; T.fmt_cycles local; T.fmt_cycles remote; paper ]
  in
  row "CaRDS read fault" R.Cost.cards Cards_net.Fabric.default_config false
    "378 / 59K";
  row "CaRDS write fault" R.Cost.cards Cards_net.Fabric.default_config true
    "384 / 59K";
  row "TrackFM read guard" R.Cost.trackfm Cards_net.Fabric.trackfm_config false
    "462 / 46K";
  row "TrackFM write guard" R.Cost.trackfm Cards_net.Fabric.trackfm_config true
    "579 / 47K";
  T.print t

(* ---------------------------------------------------------------- *)
(* Figure 4: remoting policies on Listing 1 at k = 50 %.            *)
(* ---------------------------------------------------------------- *)

let policies =
  [ ("linear", R.Policy.Linear);
    ("random", R.Policy.Random 7);
    ("max-reach", R.Policy.Max_reach);
    ("max-use", R.Policy.Max_use) ]

let fig4 () =
  header "Figure 4: Listing 1 policy comparison (k = 50%)";
  let elems = 131072 in
  let compiled = P.compile_source (W.Listing1.source ~elems ~ntimes:10) in
  let arr = elems * 8 in
  (* Local memory holds one of the two arrays pinned (paper: both
     structures are 3 GB; with k = 50% one can be localized). *)
  let remot = arr / 4 in
  let local = arr + remot in
  let allrem =
    run_cycles compiled
      (cards_cfg ~policy:R.Policy.All_remotable ~k:0.0 ~local ~remot ())
  in
  let t = T.create
      ~title:(Printf.sprintf "Listing 1, 2 structures of %s each"
                (T.fmt_bytes (float_of_int arr)))
      ~header:[ "Policy"; "Runtime (Mcycles)"; "Speedup vs all-remotable" ] in
  List.iter
    (fun (name, policy) ->
      let c = run_cycles compiled (cards_cfg ~policy ~k:0.5 ~local ~remot ()) in
      T.add_row t [ name; mcycles c; fx (float_of_int allrem /. float_of_int c) ])
    policies;
  T.add_row t [ "all-remotable"; mcycles allrem; "1.00x" ];
  T.print t;
  print_endline
    "Expected shape: max-use localizes the hot ds2 and clearly beats\n\
     linear/random (which pin ds1); paper reports ~2x."

(* ---------------------------------------------------------------- *)
(* Figures 5-7: policy sweeps over the localized fraction k.        *)
(* ---------------------------------------------------------------- *)

let policy_sweep ~title ~compiled ~remot ~note () =
  header title;
  let wss = wss_of compiled in
  let local = wss + remot in
  let allrem =
    run_cycles compiled
      (cards_cfg ~policy:R.Policy.All_remotable ~k:0.0 ~local ~remot ())
  in
  let t =
    T.create
      ~title:(Printf.sprintf
                "WSS %s, local %s, remotable %s — Mcycles (speedup vs all-remotable %s)"
                (T.fmt_bytes (float_of_int wss))
                (T.fmt_bytes (float_of_int local))
                (T.fmt_bytes (float_of_int remot))
                (mcycles allrem))
      ~header:("k" :: List.map fst policies)
  in
  List.iter
    (fun pct ->
      let k = float_of_int pct /. 100.0 in
      let cells =
        List.map
          (fun (_, policy) ->
            let c =
              match policy with
              | R.Policy.Random _ ->
                (* Average three draws so one lucky assignment does not
                   misrepresent the policy. *)
                let seeds = [ 7; 21; 42 ] in
                List.fold_left
                  (fun acc seed ->
                    acc
                    + run_cycles compiled
                        (cards_cfg ~policy:(R.Policy.Random seed) ~k ~local
                           ~remot ()))
                  0 seeds
                / List.length seeds
              | _ -> run_cycles compiled (cards_cfg ~policy ~k ~local ~remot ())
            in
            Printf.sprintf "%s (%s)" (mcycles c)
              (fx (float_of_int allrem /. float_of_int c)))
          policies
      in
      T.add_row t ((string_of_int pct ^ "%") :: cells))
    [ 25; 50; 75; 100 ];
  T.print t;
  print_endline note

let fig5 () =
  let compiled =
    P.compile_source (W.Bfs.source ~nodes:30000 ~edges:150000 ~sources:2)
  in
  policy_sweep
    ~title:"Figure 5: BFS remoting policies (localized fraction sweep)"
    ~compiled
    ~remot:(kb 512) (* paper: 256 MB of a 1.2 GB WSS, scaled *)
    ~note:"Expected shape: all policies improve with k; linear is\n\
           competitive and stable across selections (paper: linear\n\
           unaffected even at 25%); random is the weakest."
    ()

let fig6 () =
  let compiled =
    P.compile_source (W.Analytics.source ~trips:50000 ~query_passes:2)
  in
  policy_sweep
    ~title:"Figure 6: analytics remoting policies (localized fraction sweep)"
    ~compiled
    ~remot:(kb 256) (* paper: 1 GB of a 31 GB WSS, scaled *)
    ~note:"Expected shape: max-use / max-reach localize the hot\n\
           aggregation tables first and degrade most gracefully as k\n\
           shrinks (paper: max-reach unaffected down to 25%)."
    ()

let fig7 () =
  let compiled =
    P.compile_source (W.Ftfdapml.source ~cz:16 ~cym:48 ~cxm:48 ~steps:4)
  in
  policy_sweep
    ~title:"Figure 7: ftfdapml remoting policies (localized fraction sweep)"
    ~compiled
    ~remot:(kb 512) (* paper: 1 GB of an 8 GB WSS, scaled *)
    ~note:"Expected shape: selective remoting reaches ~4x over the\n\
           all-remotable configuration once the large field volumes are\n\
           localized; linear and max-reach tolerate selection changes."
    ()

(* ---------------------------------------------------------------- *)
(* Figure 8: CaRDS vs prior far-memory compilers on analytics.      *)
(* ---------------------------------------------------------------- *)

let fig8 () =
  header "Figure 8: CaRDS vs TrackFM vs Mira (analytics, local-memory sweep)";
  let src = W.Analytics.source ~trips:50000 ~query_passes:2 in
  let compiled = P.compile_source src in
  let tfm = B.Trackfm.compile_source src in
  let wss = wss_of compiled in
  let remot = kb 256 in
  let plain, _ = B.Noguard.run compiled in
  let t =
    T.create
      ~title:(Printf.sprintf
                "Runtime in Mcycles (WSS %s; all-local plain run = %s)"
                (T.fmt_bytes (float_of_int wss)) (mcycles plain.cycles))
      ~header:[ "local mem"; "CaRDS"; "TrackFM"; "Mira"; "CaRDS/TrackFM";
                "CaRDS vs Mira" ]
  in
  List.iter
    (fun pct ->
      let local = (wss * pct / 100) + remot in
      (* CaRDS's tunable parameter per the paper's guidance ("ideally
         set higher when more local memory is available"): pin as much
         as fits, ranked by Equation 1. *)
      let cards =
        run_cycles compiled
          (cards_cfg ~policy:R.Policy.Max_use ~k:1.0 ~local ~remot ())
      in
      let tres, _ = B.Trackfm.run tfm ~local_bytes:local in
      let mres, _ = B.Mira.run compiled ~local_bytes:local ~remotable_bytes:remot in
      T.add_row t
        [ string_of_int pct ^ "%";
          mcycles cards;
          mcycles tres.cycles;
          mcycles mres.cycles;
          fx (float_of_int tres.cycles /. float_of_int cards);
          Printf.sprintf "+%.0f%%"
            (100.0 *. ((float_of_int cards /. float_of_int mres.cycles) -. 1.0)) ])
    [ 25; 50; 75; 100 ];
  T.print t;
  print_endline
    "Expected shape: CaRDS consistently above TrackFM (paper: up to ~2x);\n\
     within ~20-25% of Mira when local memory is scarce; Mira pulls\n\
     ahead as memory grows (it knows exact sizes from its profile)."

(* ---------------------------------------------------------------- *)
(* Figure 9: prefetch policies on pointer-chasing data structures.  *)
(* ---------------------------------------------------------------- *)

let fig9 () =
  header "Figure 9: CaRDS speedup over TrackFM (pointer-chasing structures)";
  let variants =
    [ ("array", 32768, 2); ("vector", 16384, 2); ("list", 16384, 2);
      ("map", 4096, 2); ("hash", 8192, 2); ("tree", 16384, 2) ]
  in
  let t =
    T.create ~title:"Speedup of CaRDS over TrackFM (same local memory)"
      ~header:[ "structure"; "WSS"; "50% local"; "75% local" ]
  in
  List.iter
    (fun (variant, scale, passes) ->
      let src = W.Pointer_chase.source ~variant ~scale ~passes in
      let compiled = P.compile_source src in
      let tfm = B.Trackfm.compile_source src in
      let wss = wss_of compiled in
      let speedup pct =
        let local = wss * pct / 100 in
        let remot = local / 4 in
        let c = run_cycles compiled (cards_cfg ~k:1.0 ~local ~remot ()) in
        let tres, _ = B.Trackfm.run tfm ~local_bytes:local in
        fx (float_of_int tres.cycles /. float_of_int c)
      in
      T.add_row t
        [ variant; T.fmt_bytes (float_of_int wss); speedup 50; speedup 75 ])
    variants;
  T.print t;
  print_endline
    "Expected shape: every structure at or above 1x (paper: CaRDS\n\
     outperforms TrackFM consistently); pointer-heavy structures gain\n\
     the most from per-structure prefetchers."

(* ---------------------------------------------------------------- *)
(* Fabric: batching & queue pairs on the fig9 stride/list chases.   *)
(* ---------------------------------------------------------------- *)

let fabric_section () =
  header "Fabric: batched transport vs per-object requests (50% local)";
  let t =
    T.create
      ~title:"Same program, same outputs — batching must win or the bench fails"
      ~header:[ "workload"; "batched"; "unbatched"; "speedup"; "batches";
                "objs/batch" ]
  in
  List.iter
    (fun (variant, scale) ->
      let compiled, batched_cfg = pc_fixture ~scale variant in
      let unbatched_cfg =
        { batched_cfg with
          batching = false;
          fabric_config =
            { batched_cfg.fabric_config with Cards_net.Fabric.qp_count = 1 } }
      in
      let bres, brt = P.run compiled batched_cfg in
      let ures, urt = P.run compiled unbatched_cfg in
      (* Batching is a timing optimization; program results must be
         bit-identical, and the batched run must actually be faster. *)
      if bres.output <> ures.output then begin
        Printf.eprintf "FABRIC: outputs diverge on pc-%s\n" variant;
        exit 1
      end;
      if bres.cycles >= ures.cycles then begin
        Printf.eprintf "FABRIC: batching did not pay on pc-%s (%d vs %d)\n"
          variant bres.cycles ures.cycles;
        exit 1
      end;
      record_experiment ~tag:("pc-" ^ variant ^ "-batched") ~cycles:bres.cycles
        brt;
      record_experiment ~tag:("pc-" ^ variant ^ "-unbatched")
        ~cycles:ures.cycles urt;
      let fs : Cards_net.Fabric.stats = R.Runtime.fabric_stats brt in
      T.add_row t
        [ "pc-" ^ variant; mcycles bres.cycles ^ " Mc"; mcycles ures.cycles ^ " Mc";
          fx (float_of_int ures.cycles /. float_of_int bres.cycles);
          string_of_int fs.batches;
          (if fs.batches = 0 then "-"
           else
             Printf.sprintf "%.1f"
               (float_of_int fs.batched_objects /. float_of_int fs.batches)) ])
    [ ("array", 32768); ("list", 16384) ];
  T.print t;
  print_endline
    "Stride windows and jump-pointer chases both coalesce; the checks\n\
     above are hard assertions (divergent outputs or a slowdown fail\n\
     the bench)."

(* ---------------------------------------------------------------- *)
(* Profile: cycle attribution for the fig8/fig9 workloads.          *)
(* ---------------------------------------------------------------- *)

let profile_run name (compiled, cfg) =
  let res, rt = P.run compiled cfg in
  let prof = R.Runtime.profile rt in
  T.print
    (O.Export.profile_table
       ~title:
         (Printf.sprintf "%s: cycle attribution (%s cycles)" name
            (T.fmt_cycles (float_of_int res.cycles)))
       ~names:(R.Runtime.ds_name rt) prof (R.Runtime.attribution rt));
  T.print (O.Export.latency_table ~title:(name ^ ": fetch latency") prof);
  T.print
    (O.Export.fabric_table ~title:(name ^ ": fabric")
       ~over_budget:(R.Rt_stats.over_budget (R.Runtime.stats rt))
       (R.Runtime.fabric_stats rt))

let profile_section () =
  header "Profile: where the simulated cycles go (fig8/fig9 workloads)";
  (* The fig8 analytics workload under memory pressure: demand stalls
     and queueing should dominate the remoted structures. *)
  profile_run "analytics (50% local)" (analytics_fixture ());
  (* The fig9 chase suite's hardest cases: the jump prefetcher turns
     demand stalls into pf-hidden cycles on the list from the second
     traversal on; the tree's greedy prefetcher hides less. *)
  List.iter
    (fun variant ->
      profile_run
        (Printf.sprintf "pc-%s (50%% local)" variant)
        (pc_fixture variant))
    [ "list"; "tree" ]

(* ---------------------------------------------------------------- *)
(* Attribution: stall root causes + fetch-latency percentiles.      *)
(* ---------------------------------------------------------------- *)

(* The regression-gated observability suite: runs the fig9 chases and
   the fig8 analytics workload at 50% local, asserts the ledger
   exactness invariant at bench scale, prints the per-cause / per-site
   stall decomposition, and records each run so BENCH_attr.json gates
   cycle counts and fabric counters across PRs. *)
let attr_section () =
  header "Attribution: stall root causes (fig8/fig9 workloads, 50% local)";
  let run_one tag (compiled, cfg) =
    let res, rt = P.run compiled cfg in
    let prof = R.Runtime.profile rt in
    let attr = R.Runtime.attribution rt in
    let stall = res.cycles - O.Profile.compute prof in
    if O.Attribution.total attr <> stall then begin
      Printf.eprintf
        "ATTR: ledger total %d <> stall %d (cycles %d - compute %d) on %s\n"
        (O.Attribution.total attr) stall res.cycles
        (O.Profile.compute prof) tag;
      exit 1
    end;
    let names = R.Runtime.ds_name rt in
    T.print
      (O.Export.attribution_table
         ~title:
           (Printf.sprintf "%s: stall attribution (%s stall / %s total)" tag
              (T.fmt_cycles (float_of_int stall))
              (T.fmt_cycles (float_of_int res.cycles)))
         ~names attr);
    T.print
      (O.Export.attribution_sites_table ~title:(tag ^ ": hottest access sites")
         ~names attr);
    T.print
      (O.Export.latency_percentiles_table
         ~title:(tag ^ ": fetch latency percentiles") ~names prof);
    record_experiment ~tag ~cycles:res.cycles rt
  in
  run_one "attr-analytics" (analytics_fixture ());
  List.iter
    (fun variant -> run_one ("attr-pc-" ^ variant) (pc_fixture variant))
    [ "list"; "tree" ];
  print_endline
    "Every stalled cycle lands in exactly one cause bucket; the ledger\n\
     total matching (cycles - compute) above is a hard assertion."

(* ---------------------------------------------------------------- *)
(* Faults: injected fabric faults, retry/backoff, degradation.      *)
(* ---------------------------------------------------------------- *)

(* The resilience suite: the fig9 list chase under increasing injected
   fault rates.  Three hard assertions per rate —

     1. program outputs are bit-identical to the fault-free run
        (faults perturb timing only, never data);
     2. the stall ledger stays exact and, at any nonzero rate, charges
        a nonzero Retry bucket (Attribution.total = cycles - compute);
     3. graceful degradation keeps the slowdown bounded
        (cycles <= FAULT_SLOWDOWN_BOUND x the fault-free run, even at a
        50% fault rate).

   A second run at rate 0.2 with the same seed must reproduce the
   cycle count exactly (the injection schedule is PRNG-driven, not
   wall-clock-driven).  Every run is recorded, so BENCH_faults.json
   gates the fault-path timing across PRs. *)

let fault_slowdown_bound = 8

let faults_section () =
  header "Faults: retry/backoff and graceful degradation (pc-list, 50% local)";
  let compiled, cfg = pc_fixture "list" in
  let run_at rate = P.run compiled (seed7_faults ~rate cfg) in
  let base_res, base_rt = run_at 0.0 in
  record_experiment ~tag:"faults-pc-list-r0" ~cycles:base_res.cycles base_rt;
  let t =
    T.create
      ~title:(Printf.sprintf
                "pc-list, seed 7 — fault-free run %s Mc (bound %dx)"
                (mcycles base_res.cycles) fault_slowdown_bound)
      ~header:[ "fault rate"; "Mcycles"; "vs clean"; "injected"; "retries";
                "timeouts"; "escalations"; "retry stall"; "degrade steps" ]
  in
  List.iter
    (fun (tag, rate) ->
      let res, rt = run_at rate in
      (* 1. Faults never corrupt data: only completion times move. *)
      if res.output <> base_res.output then begin
        Printf.eprintf "FAULTS: outputs diverge at rate %.2f\n" rate;
        exit 1
      end;
      let attr = R.Runtime.attribution rt in
      (* 2. Ledger exactness, with the retry cost visible as Retry. *)
      let stall = res.cycles - O.Profile.compute (R.Runtime.profile rt) in
      if O.Attribution.total attr <> stall then begin
        Printf.eprintf "FAULTS: ledger total %d <> stall %d at rate %.2f\n"
          (O.Attribution.total attr) stall rate;
        exit 1
      end;
      let retry_stall = cause_total attr O.Attribution.Retry in
      if rate > 0.0 && retry_stall = 0 then begin
        Printf.eprintf "FAULTS: no Retry stall charged at rate %.2f\n" rate;
        exit 1
      end;
      (* 3. Degradation keeps the fault tax bounded. *)
      if res.cycles > fault_slowdown_bound * base_res.cycles then begin
        Printf.eprintf "FAULTS: %d cycles > %dx fault-free %d at rate %.2f\n"
          res.cycles fault_slowdown_bound base_res.cycles rate;
        exit 1
      end;
      record_experiment ~tag ~cycles:res.cycles rt;
      let fs : Cards_net.Fabric.stats = R.Runtime.fabric_stats rt in
      let s = R.Runtime.stats rt in
      T.add_row t
        [ Printf.sprintf "%.2f" rate; mcycles res.cycles;
          Printf.sprintf "%.2fx"
            (float_of_int res.cycles /. float_of_int base_res.cycles);
          string_of_int (Cards_net.Fabric.faults_injected fs);
          string_of_int (R.Rt_stats.retries s);
          string_of_int (R.Rt_stats.timeouts s);
          string_of_int (R.Rt_stats.escalations s);
          mcycles retry_stall ^ " Mc";
          Printf.sprintf "%d/%d" (R.Rt_stats.degrade_steps s)
            (R.Rt_stats.recover_steps s) ])
    [ ("faults-pc-list-r5", 0.05); ("faults-pc-list-r20", 0.2);
      ("faults-pc-list-r50", 0.5) ];
  T.print t;
  (* Same seed, same schedule: the whole fault path is deterministic. *)
  let again, _ = run_at 0.2 in
  let once =
    List.find_map
      (fun e ->
        match e with
        | J.Obj fields
          when List.assoc_opt "tag" fields = Some (J.Str "faults-pc-list-r20")
          -> (match List.assoc_opt "cycles" fields with
              | Some (J.Int c) -> Some c
              | _ -> None)
        | _ -> None)
      !experiments
  in
  (match once with
   | Some c when c <> again.cycles ->
     Printf.eprintf "FAULTS: rate 0.2 not deterministic (%d then %d)\n" c
       again.cycles;
     exit 1
   | Some _ -> ()
   | None ->
     Printf.eprintf "FAULTS: determinism check lost its first run\n";
     exit 1);
  print_endline
    "Outputs bit-identical to the fault-free run at every rate; the\n\
     stall ledger stays exact (Retry bucket included); the slowdown\n\
     bound and same-seed determinism are hard assertions."

(* ---------------------------------------------------------------- *)
(* Spans: causal tracing reconciliation + critical path.            *)
(* ---------------------------------------------------------------- *)

(* The causal-tracing suite: the fig9 list chase (clean and at a 20%
   fault rate) and the fig8 analytics workload, each run twice — bare,
   then with span recording at rate 1.0.  Hard assertions per cell —

     1. recording is read-only: the traced run's whole result record,
        aggregate stats and ledger cause totals are bit-identical to
        the bare run's;
     2. the span graph is well formed (unique ids, parent edges
        strictly backwards — the acyclicity the critical-path pass
        needs);
     3. reconciliation at rate 1.0 is exact: summing each phase over
        the recorded spans reproduces the stall ledger's Proto / Wire /
        per-QP Queue / Pf_wait / Retry / Trap totals to the cycle;
     4. the critical path is non-trivial: the analyzer finds a chain
        with nonzero stall.

   Both the run's cycles and its critical-path length enter the JSON
   snapshot, so BENCH_spans.json gates them across PRs. *)

let spans_section () =
  header "Spans: causal tracing, ledger reconciliation, critical path";
  let t =
    T.create
      ~title:"span recording at rate 1.0 (bare run vs traced run identical)"
      ~header:[ "workload"; "Mcycles"; "spans"; "chain spans"; "chain stall";
                "dominant phase" ]
  in
  let run_one tag compiled cfg =
    let bare_res, bare_rt = P.run compiled cfg in
    let obs = O.Sink.create ~span_rate:1.0 () in
    let res, rt = P.run ~obs compiled cfg in
    (* 1. Tracing never writes the clock or the program. *)
    if res <> bare_res then begin
      Printf.eprintf "SPANS: traced run diverges from bare run on %s\n" tag;
      exit 1
    end;
    if R.Runtime.stats rt <> R.Runtime.stats bare_rt then begin
      Printf.eprintf "SPANS: traced stats diverge from bare stats on %s\n" tag;
      exit 1
    end;
    let attr = R.Runtime.attribution rt in
    if
      O.Attribution.cause_totals attr
      <> O.Attribution.cause_totals (R.Runtime.attribution bare_rt)
    then begin
      Printf.eprintf "SPANS: traced ledger diverges from bare ledger on %s\n"
        tag;
      exit 1
    end;
    let col =
      match O.Sink.spans obs with
      | Some c -> c
      | None ->
        Printf.eprintf "SPANS: sink built without a collector on %s\n" tag;
        exit 1
    in
    (* 2. Acyclicity and id discipline. *)
    if not (O.Span.well_formed col) then begin
      Printf.eprintf "SPANS: span graph not well formed on %s\n" tag;
      exit 1
    end;
    (* 3. Exact reconciliation against the stall ledger at rate 1.0. *)
    let tot = O.Span.cpu_totals col in
    let ledger = cause_total attr in
    let check what spans ledger_v =
      if spans <> ledger_v then begin
        Printf.eprintf "SPANS: %s: span %s %d <> ledger %d\n" tag what spans
          ledger_v;
        exit 1
      end
    in
    check "proto" tot.O.Span.tot_proto (ledger O.Attribution.Proto);
    check "wire" tot.O.Span.tot_wire (ledger O.Attribution.Wire);
    check "retry" tot.O.Span.tot_retry (ledger O.Attribution.Retry);
    check "pf_wait" tot.O.Span.tot_pf_wait (ledger O.Attribution.Pf_wait);
    check "trap" tot.O.Span.tot_trap (ledger O.Attribution.Trap);
    Array.iteri
      (fun qp v ->
        check (Printf.sprintf "queue[%d]" qp) v (ledger (O.Attribution.Queue qp)))
      tot.O.Span.tot_queue;
    List.iter
      (fun (c, v) ->
        match c with
        | O.Attribution.Queue qp when qp >= Array.length tot.O.Span.tot_queue ->
          check (Printf.sprintf "queue[%d]" qp) 0 v
        | _ -> ())
      (O.Attribution.cause_totals attr);
    (* 4. The analyzer finds a real chain at bench scale. *)
    let rep =
      match O.Critical_path.analyze col with
      | Some r when r.O.Critical_path.r_chain_stall > 0 -> r
      | Some _ ->
        Printf.eprintf "SPANS: critical path has zero stall on %s\n" tag;
        exit 1
      | None ->
        Printf.eprintf "SPANS: no spans recorded on %s\n" tag;
        exit 1
    in
    record_experiment ~tag ~cycles:res.cycles rt;
    record_experiment ~tag:(tag ^ "-critical-path")
      ~cycles:rep.O.Critical_path.r_chain_stall rt;
    let ph = rep.O.Critical_path.r_phases in
    let dominant =
      List.fold_left
        (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
        ("-", 0)
        [ ("queued", ph.O.Critical_path.cp_queued);
          ("proto", ph.O.Critical_path.cp_proto);
          ("wire", ph.O.Critical_path.cp_wire);
          ("retry", ph.O.Critical_path.cp_retry);
          ("pf-wait", ph.O.Critical_path.cp_pf_wait);
          ("trap", ph.O.Critical_path.cp_trap) ]
      |> fst
    in
    T.add_row t
      [ tag; mcycles res.cycles; string_of_int (O.Span.length col);
        string_of_int (List.length rep.O.Critical_path.r_chain);
        T.fmt_cycles (float_of_int rep.O.Critical_path.r_chain_stall);
        dominant ]
  in
  let pc, pc_cfg = pc_fixture "list" in
  run_one "spans-pc-list" pc pc_cfg;
  run_one "spans-pc-list-r20" pc (seed7_faults ~rate:0.2 pc_cfg);
  let analytics, analytics_cfg = analytics_fixture () in
  run_one "spans-analytics" analytics analytics_cfg;
  T.print t;
  print_endline
    "Tracing is read-only (traced runs bit-identical to bare runs); at\n\
     rate 1.0 every span phase reconciles with the stall ledger to the\n\
     cycle; the critical-path chain is non-empty.  All hard assertions."

(* ---------------------------------------------------------------- *)
(* Ablations: which CaRDS mechanism buys what.                      *)
(* ---------------------------------------------------------------- *)

let ablations () =
  header "Ablations: guard elimination, code versioning, prefetch classes";
  let src = W.Listing1.source ~elems:65536 ~ntimes:8 in
  let wss = 2 * 65536 * 8 in
  let remot = wss / 8 in
  let local = wss + remot in
  let variants =
    [ ("full CaRDS", P.cards_options, R.Runtime.Pf_per_class);
      ("guard elim at TrackFM level",
       { P.cards_options with
         guard_elim_level = Cards_transform.Guard_elim.Ltrackfm },
       R.Runtime.Pf_per_class);
      ("no code versioning",
       { P.cards_options with versioning = false },
       R.Runtime.Pf_per_class);
      ("no prefetching", P.cards_options, R.Runtime.Pf_none);
      ("stride-only prefetching", P.cards_options, R.Runtime.Pf_stride_only) ]
  in
  let t =
    T.create ~title:"Listing 1 (all structures pinned, k = 1.0)"
      ~header:[ "configuration"; "Mcycles"; "static guards"; "vs full" ]
  in
  let full = ref 0 in
  List.iter
    (fun (name, options, pf) ->
      let compiled = P.compile_source ~options src in
      let cfg =
        { (cards_cfg ~k:1.0 ~local ~remot ()) with prefetch_mode = pf }
      in
      let c = run_cycles compiled cfg in
      if !full = 0 then full := c;
      T.add_row t
        [ name; mcycles c; string_of_int compiled.static_guards;
          fx (float_of_int c /. float_of_int !full) ])
    variants;
  T.print t;
  (* Prefetch-class ablation on the chase suite under pressure. *)
  let t2 =
    T.create ~title:"Pointer-chase list (50% local): prefetch mode ablation"
      ~header:[ "prefetch mode"; "Mcycles"; "vs per-class" ]
  in
  (* Several passes: the adaptive mode pays an exploration cost on the
     early traversals and needs a few to converge back to the jump
     prefetcher. *)
  let src = W.Pointer_chase.source ~variant:"list" ~scale:8192 ~passes:6 in
  let compiled = P.compile_source src in
  let wss = wss_of compiled in
  let local = wss / 2 in
  let remot = local / 4 in
  let base = ref 0 in
  List.iter
    (fun (name, pf) ->
      let cfg = { (cards_cfg ~k:1.0 ~local ~remot ()) with prefetch_mode = pf } in
      let c = run_cycles compiled cfg in
      if !base = 0 then base := c;
      T.add_row t2 [ name; mcycles c; fx (float_of_int c /. float_of_int !base) ])
    [ ("per-class (jump)", R.Runtime.Pf_per_class);
      ("adaptive", R.Runtime.Pf_adaptive);
      ("stride-only", R.Runtime.Pf_stride_only);
      ("none", R.Runtime.Pf_none) ];
  T.print t2;
  print_endline
    "Adaptive pays an exploration cost when the compiler's class was\n\
     already right (jump for a list); its value shows when the class is\n\
     wrong:";
  (* A structure whose only strided accesses are its initialization —
     the hot phase is random gather, so the compile-time [stride] class
     is wrong at runtime and issues useless traffic. *)
  let misclassified =
    {|
int N = 65536;
int PASSES = 6;
int rng_state = 5577;
int rnd(int bound) {
  rng_state = rng_state * 2862933555777941757 + 3037000493;
  int x = rng_state / 65536;
  if (x < 0) { x = 0 - x; }
  return x % bound;
}
void main() {
  double *a = malloc(N * 8);
  int *idx = malloc(N * 8);
  for (int i = 0; i < N; i = i + 1) {
    a[i] = 1.0 * i;
    idx[i] = rnd(N);
  }
  double s = 0.0;
  for (int p = 0; p < PASSES; p = p + 1) {
    for (int i = 0; i < N; i = i + 1) {
      s = s + a[idx[i]];
    }
  }
  print_float(s);
}
|}
  in
  let compiled = P.compile_source misclassified in
  let wss = wss_of compiled in
  let local = wss / 3 in
  let remot = local * 3 / 4 in
  let t3 =
    T.create
      ~title:"Random gather over a stride-classified array (33% local)"
      ~header:[ "prefetch mode"; "Mcycles"; "vs per-class" ]
  in
  let base = ref 0 in
  List.iter
    (fun (name, pf) ->
      let cfg =
        { (cards_cfg ~policy:R.Policy.All_remotable ~k:0.0 ~local ~remot ())
          with prefetch_mode = pf }
      in
      let c = run_cycles compiled cfg in
      if !base = 0 then base := c;
      T.add_row t3 [ name; mcycles c; fx (float_of_int c /. float_of_int !base) ])
    [ ("per-class (stride)", R.Runtime.Pf_per_class);
      ("adaptive", R.Runtime.Pf_adaptive);
      ("none", R.Runtime.Pf_none) ];
  T.print t3

(* ---------------------------------------------------------------- *)
(* Bechamel: wall-clock microbenchmarks of the runtime primitives.  *)
(* ---------------------------------------------------------------- *)

let bechamel () =
  header "Bechamel: wall-clock cost of runtime primitives (host CPU)";
  let open Bechamel in
  let open Toolkit in
  let info = R.Static_info.default ~sid:0 in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = kb 1024; remotable_bytes = kb 512;
        prefetch_mode = R.Runtime.Pf_none }
      [| info |]
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  R.Runtime.guard rt ~write:false a;
  let tests =
    [ Test.make ~name:"addr_encode_decode" (Staged.stage (fun () ->
          let x = R.Addr.encode ~ds:3 ~offset:512 in
          ignore (R.Addr.ds_of x + R.Addr.offset_of x)));
      Test.make ~name:"guard_hit_path" (Staged.stage (fun () ->
          R.Runtime.guard rt ~write:false a));
      Test.make ~name:"heap_read_i64" (Staged.stage (fun () ->
          ignore (R.Runtime.read_i64 rt a)));
      Test.make ~name:"custody_check_unmanaged" (Staged.stage (fun () ->
          R.Runtime.guard rt ~write:false 64)) ]
  in
  let t =
    T.create ~title:"OLS time per call (nanoseconds, host wall clock)"
      ~header:[ "primitive"; "ns/call" ]
  in
  List.iter
    (fun test ->
      let instances = Instance.[ monotonic_clock ] in
      let cfg =
        Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
      in
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> T.add_row t [ name; Printf.sprintf "%.1f" est ]
          | Some [] | None -> T.add_row t [ name; "n/a" ])
        results)
    tests;
  T.print t

(* ---------------------------------------------------------------- *)
(* Host: pre-decoded engine vs reference interpreter.               *)
(* ---------------------------------------------------------------- *)

module M = Cards_interp.Machine

(* Compute-bound and all-local, so host time measures engine dispatch
   rather than the simulated memory system: the reference
   tree-walker's per-instruction pattern matches against the decoded
   engine's one indirect call per pre-specialized closure.  Cheap ops
   only — a hardware divide costs both engines the same and would
   dilute the dispatch ratio under test. *)
let host_arith_src =
  {|void main() {
      int acc = 0;
      int x = 1;
      for (int i = 0; i < 2000000; i = i + 1) {
        x = x * 31 + i;
        if (x < 0) { x = 1 - x; }
        acc = acc + x;
      }
      print_int(acc % 1000007);
    }|}

(* One run of [engine] over the arithmetic workload, timed in
   process CPU seconds. *)
let time_engine compiled engine =
  let t0 = Sys.time () in
  let res, rt = B.Noguard.run ~engine compiled in
  (res, rt, Sys.time () -. t0)

(* Timed (reference, decoded) pairs.  Host speed drifts between runs
   on a shared machine, and the two runs of a pair are adjacent, so
   each pair's ratio sees nearly the same host; the median over pairs
   is the gated estimate. *)
let host_pairs = 7

let host () =
  header "Host: pre-decoded engine vs reference interpreter (wall clock)";
  let compiled = P.compile_source host_arith_src in
  ignore (time_engine compiled M.Reference);
  ignore (time_engine compiled M.Decoded);
  let pairs =
    Array.init host_pairs (fun _ ->
        let res_r, _, t_ref = time_engine compiled M.Reference in
        let res_d, rt_d, t_dec = time_engine compiled M.Decoded in
        (res_r, t_ref, res_d, rt_d, t_dec))
  in
  (* Identity first: a throughput ratio between two engines only means
     something if they are the same machine. *)
  Array.iter
    (fun (res_r, _, res_d, _, _) ->
      if
        res_r.M.output <> res_d.M.output
        || res_r.M.cycles <> res_d.M.cycles
        || res_r.M.instructions <> res_d.M.instructions
      then begin
        Printf.eprintf "HOST: engines diverge on the arithmetic workload\n";
        exit 1
      end)
    pairs;
  let ips res dt = float_of_int res.M.instructions /. Float.max dt 1e-9 in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "engine throughput, instructions per host second (%d alternating \
            pairs)"
           host_pairs)
      ~header:[ "pair"; "reference"; "decoded"; "speedup" ]
  in
  let ratios =
    Array.mapi
      (fun i (res_r, t_ref, res_d, _, t_dec) ->
        let ratio = ips res_d t_dec /. ips res_r t_ref in
        T.add_row t
          [ string_of_int (i + 1);
            Printf.sprintf "%.1fM" (ips res_r t_ref /. 1e6);
            Printf.sprintf "%.1fM" (ips res_d t_dec /. 1e6);
            fx ratio ];
        ratio)
      pairs
  in
  let sorted = Array.copy ratios in
  Array.sort compare sorted;
  let ratio = sorted.(host_pairs / 2) in
  T.add_row t [ "median"; ""; ""; fx ratio ];
  T.print t;
  let _, _, res_d, rt_d, _ = pairs.(0) in
  (* Only the deterministic simulated cycles enter the JSON snapshot;
     the wall-clock ratio is asserted here, not gated there. *)
  record_experiment ~tag:"host-arith" ~cycles:res_d.M.cycles rt_d;
  (* Guard-heavy identity under the full CaRDS runtime: the fig9 list
     chase drives the runtime's access path hard, and both engines
     must agree on the whole result record. *)
  let pc =
    P.compile_source
      (W.Pointer_chase.source ~variant:"list" ~scale:1024 ~passes:2)
  in
  let cfg = cards_cfg ~k:1.0 ~local:(kb 16) ~remot:(kb 8) () in
  let dres, drt = P.run ~engine:M.Decoded pc cfg in
  let rres, _ = P.run ~engine:M.Reference pc cfg in
  if dres <> rres then begin
    Printf.eprintf
      "HOST: engines diverge on pc-list (decoded %d cycles, reference %d)\n"
      dres.M.cycles rres.M.cycles;
    exit 1
  end;
  record_experiment ~tag:"host-pc-list" ~cycles:dres.M.cycles drt;
  if ratio < 2.0 then begin
    Printf.eprintf
      "HOST: decoded engine speedup %.2fx below the required 2.00x\n" ratio;
    exit 1
  end;
  Printf.printf "decoded engine: %s over the reference, outputs identical\n"
    (fx ratio)

(* ---------------------------------------------------------------- *)
(* Layout: the factorization pass (hot/cold side pools, AoS->SoA).  *)
(* ---------------------------------------------------------------- *)

(* The layout-factorization suite: the fig9 shuffled list chase (whose
   56-byte nodes carry cold provenance fields) and the row-major
   analytics trip table (eleven columns fused into one 88-byte
   struct).  Policy is all-remotable with the cache well under the
   working set, so fetch traffic — not placement luck — decides the
   outcome.  Hard assertions per workload —

     1. outputs are bit-identical with and without --factorize;
     2. the factorized run fetches strictly fewer bytes AND finishes
        in strictly fewer cycles (the pass must pay for itself, index
        indirections included);
     3. per-structure fetched-bytes accounting is exact: the per-ds
        counters sum to the fabric's fetched_bytes on every run;
     4. the differential oracle holds on the transformed module: both
        engines produce identical whole result records, and outputs
        match the untransformed program, across qp {1,2,4} x batching
        on/off x fault rate {0, 0.2}.

   Both runs of each pair enter the JSON snapshot, so
   BENCH_layout.json gates the factorization win across PRs. *)

let layout_section () =
  header "Layout: compiler factorization (hot/cold side pools, AoS->SoA)";
  let fact_options = { P.cards_options with factorize = true } in
  let per_ds_sum rt =
    List.fold_left
      (fun acc (r : R.Runtime.ds_report) ->
        acc + r.r_stats.R.Rt_stats.fetched_bytes)
      0 (R.Runtime.report rt)
  in
  let t =
    T.create
      ~title:"all-remotable, cache < WSS — factorized must fetch and stall less"
      ~header:[ "workload"; "Mcycles"; "factorized"; "fetched"; "factorized";
                "byte win" ]
  in
  List.iter
    (fun (name, src, local, remot) ->
      let plain = P.compile_source src in
      let fact = P.compile_source ~options:fact_options src in
      let cfg =
        cards_cfg ~policy:R.Policy.All_remotable ~k:0.0 ~local ~remot ()
      in
      let pres, prt = P.run plain cfg in
      let fres, frt = P.run fact cfg in
      (* 1. Layout changes are invisible to the program. *)
      if fres.M.output <> pres.M.output then begin
        Printf.eprintf "LAYOUT: outputs diverge under --factorize on %s\n" name;
        exit 1
      end;
      let pb = (R.Runtime.fabric_stats prt).Cards_net.Fabric.fetched_bytes in
      let fb = (R.Runtime.fabric_stats frt).Cards_net.Fabric.fetched_bytes in
      (* 2. Strictly fewer bytes and strictly fewer cycles. *)
      if fb >= pb then begin
        Printf.eprintf "LAYOUT: fetched bytes did not shrink on %s (%d >= %d)\n"
          name fb pb;
        exit 1
      end;
      if fres.M.cycles >= pres.M.cycles then begin
        Printf.eprintf "LAYOUT: factorization did not pay on %s (%d >= %d)\n"
          name fres.M.cycles pres.M.cycles;
        exit 1
      end;
      (* 3. The per-structure mirror of the fabric's byte counter is
         exact on both runs. *)
      if per_ds_sum prt <> pb || per_ds_sum frt <> fb then begin
        Printf.eprintf
          "LAYOUT: per-ds fetched bytes (%d / %d) do not sum to the fabric's \
           (%d / %d) on %s\n"
          (per_ds_sum prt) (per_ds_sum frt) pb fb name;
        exit 1
      end;
      record_experiment ~tag:("layout-" ^ name ^ "-plain") ~cycles:pres.M.cycles
        prt;
      record_experiment ~tag:("layout-" ^ name ^ "-fact") ~cycles:fres.M.cycles
        frt;
      (* 4. Differential oracle on the transformed module. *)
      List.iter
        (fun qp ->
          List.iter
            (fun batching ->
              List.iter
                (fun rate ->
                  let dcfg =
                    { cfg with
                      R.Runtime.batching;
                      fabric_config =
                        { cfg.R.Runtime.fabric_config with
                          Cards_net.Fabric.qp_count = qp;
                          faults =
                            { Cards_net.Fabric.no_faults with
                              Cards_net.Fabric.fault_rate = rate;
                              fault_seed = 11 } } }
                  in
                  let d, _ = P.run ~engine:M.Decoded fact dcfg in
                  let r, _ = P.run ~engine:M.Reference fact dcfg in
                  if d <> r then begin
                    Printf.eprintf
                      "LAYOUT: engines diverge on %s (qp %d, batching %b, \
                       rate %.1f)\n"
                      name qp batching rate;
                    exit 1
                  end;
                  if d.M.output <> pres.M.output then begin
                    Printf.eprintf
                      "LAYOUT: factorized output diverges on %s (qp %d, \
                       batching %b, rate %.1f)\n"
                      name qp batching rate;
                    exit 1
                  end)
                [ 0.0; 0.2 ])
            [ true; false ])
        [ 1; 2; 4 ];
      T.add_row t
        [ name; mcycles pres.M.cycles; mcycles fres.M.cycles;
          T.fmt_bytes (float_of_int pb); T.fmt_bytes (float_of_int fb);
          fx (float_of_int pb /. float_of_int fb) ])
    [ ("fig9-list", read_file "examples/minic/fig9_list.mc", kb 1024, kb 768);
      ("analytics-aos", W.Analytics.source_aos ~trips:20000 ~query_passes:2,
       kb 2048, kb 1024) ];
  T.print t;
  print_endline
    "Hot/cold splitting shrinks the chased node to its hot half; the\n\
     AoS table becomes columns.  Byte and cycle reductions, exact\n\
     per-structure byte accounting, and the engine x qp x batching x\n\
     fault-rate differential matrix are all hard assertions."

(* ---------------------------------------------------------------- *)
(* What-if: virtual speedups over the span graph, each prediction    *)
(* validated by deterministically re-executing the program with the  *)
(* corresponding runtime knob actually changed.                      *)
(* ---------------------------------------------------------------- *)

(* Hard assertions per workload x scenario —

     1. the identity scenario (all factors x1.0) predicts the measured
        run to the cycle, and its predicted chain stall equals the
        critical-path analyzer's — the replay is anchored, not fitted;
     2. every re-executed scenario's program output is bit-identical
        to the baseline's (what-if knobs perturb timing only), and the
        identity re-run reproduces the whole result record exactly;
     3. directional agreement: when the replay predicts a scenario
        saves more than 1% it must actually measure faster;
     4. the prediction lands within WHATIF_REL_ERROR of the measured
        re-run.

   Both measured and predicted cycles of every scenario enter the JSON
   snapshot, so BENCH_whatif.json gates the predictor itself — not
   just the runs — across PRs. *)

let whatif_rel_error = 0.15

let whatif_section () =
  header "What-if: virtual speedups (span-graph replay vs re-execution)";
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "WHATIF: %s\n" m; exit 1) fmt in
  let run_one wl compiled cfg =
    let obs = O.Sink.create ~span_rate:1.0 () in
    let res, rt = P.run ~obs compiled cfg in
    let col =
      match O.Sink.spans obs with
      | Some c -> c
      | None -> fail "sink built without a collector on %s" wl
    in
    let names = R.Runtime.ds_name rt in
    let ranked =
      O.Whatif.rank ~total:res.M.cycles col (O.Whatif.catalog ~names col)
    in
    (* 1. Identity exactness: prediction and critical path to the cycle. *)
    let ident =
      match
        List.find_opt
          (fun (p : O.Whatif.prediction) ->
            p.p_scenario.O.Whatif.sc_id = "identity")
          ranked
      with
      | Some p -> p
      | None -> fail "catalog lost the identity scenario on %s" wl
    in
    if ident.O.Whatif.p_cycles <> res.M.cycles then
      fail "identity predicts %d <> measured %d on %s" ident.O.Whatif.p_cycles
        res.M.cycles wl;
    (match O.Critical_path.analyze col with
     | Some r ->
       if ident.O.Whatif.p_chain_stall <> r.O.Critical_path.r_chain_stall then
         fail "identity chain stall %d <> critical path %d on %s"
           ident.O.Whatif.p_chain_stall r.O.Critical_path.r_chain_stall wl
     | None -> fail "no spans recorded on %s" wl);
    record_experiment ~tag:("whatif-" ^ wl ^ "-baseline") ~cycles:res.M.cycles
      rt;
    let rows =
      List.map
        (fun (p : O.Whatif.prediction) ->
          let sc = p.p_scenario in
          let measured =
            match R.Runtime.whatif_config cfg sc.O.Whatif.sc_exec with
            | None -> None
            | Some cfg' ->
              let res', rt' = P.run compiled cfg' in
              (* 2. Timing-only perturbation; identity fully identical. *)
              if res'.M.output <> res.M.output then
                fail "%s/%s: perturbed run diverged in output" wl
                  sc.O.Whatif.sc_id;
              if sc.O.Whatif.sc_id = "identity" && res' <> res then
                fail "%s: identity re-run not bit-identical (%d vs %d cycles)"
                  wl res'.M.cycles res.M.cycles;
              (* 3. Directional agreement (1% guard band). *)
              if
                float_of_int p.p_cycles < 0.99 *. float_of_int res.M.cycles
                && res'.M.cycles >= res.M.cycles
              then
                fail "%s/%s: predicted %d < baseline %d but measured %d is \
                      not faster"
                  wl sc.O.Whatif.sc_id p.p_cycles res.M.cycles res'.M.cycles;
              (* 4. Error bound. *)
              let err =
                if res'.M.cycles = 0 then 0.0
                else
                  abs_float (float_of_int (p.p_cycles - res'.M.cycles))
                  /. float_of_int res'.M.cycles
              in
              if err > whatif_rel_error then
                fail "%s/%s: predicted %d vs measured %d (%.1f%% > %.0f%%)" wl
                  sc.O.Whatif.sc_id p.p_cycles res'.M.cycles (100.0 *. err)
                  (100.0 *. whatif_rel_error);
              record_experiment
                ~tag:("whatif-" ^ wl ^ "-" ^ sc.O.Whatif.sc_id)
                ~cycles:res'.M.cycles rt';
              record_experiment
                ~tag:("whatif-" ^ wl ^ "-" ^ sc.O.Whatif.sc_id ^ "-pred")
                ~cycles:p.p_cycles rt';
              Some res'.M.cycles
          in
          (p, measured))
        ranked
    in
    T.print
      (O.Export.whatif_table
         ~title:(wl ^ ": what should we optimize next? (predicted vs measured)")
         rows)
  in
  (* The layout suite's fig9 list chase: all-remotable, cache < WSS. *)
  let fig9 = P.compile_source (read_file "examples/minic/fig9_list.mc") in
  run_one "fig9-list" fig9
    (cards_cfg ~policy:R.Policy.All_remotable ~k:0.0 ~local:(kb 1024)
       ~remot:(kb 768) ());
  (* The spans suite's analytics workload at 50% local. *)
  let analytics, analytics_cfg = analytics_fixture () in
  run_one "analytics" analytics analytics_cfg;
  print_endline
    "The identity scenario reproduces the measured run and the critical\n\
     path to the cycle; every other scenario is re-executed for real \n\
     with bit-identical outputs, directional agreement, and predictions\n\
     within the error bound.  All hard assertions."

(* ---------------------------------------------------------------- *)
(* Serving: DRR fairness and fault isolation (the serving layer's    *)
(* headline claim).  Hard assertions —                               *)
(*   - exact decomposition: total = idle + busy, busy = sum of per-  *)
(*     tenant service cycles, sum of per-tenant fetched bytes =      *)
(*     aggregate fabric counter, DRR credit conserved;               *)
(*   - same-seed determinism: two fault-free runs bit-identical      *)
(*     (outputs, records, cycles, latency histograms);               *)
(*   - fault isolation: with tenant 1 faulty at 20%, every healthy   *)
(*     tenant's p99 stays within 1.5x its fault-free p99 while the   *)
(*     faulty tenant's service cycles strictly grow and its runtime  *)
(*     ends degraded;                                                *)
(*   - per-tenant outputs invariant under faults (timing-only).     *)
(* The gate then diffs per-tenant service cycles, p99 latencies and  *)
(* fabric counters against BENCH_serve.json.                         *)
(* ---------------------------------------------------------------- *)

let serve_section () =
  header "Serving: DRR fairness and fault isolation (4-tenant Zipf mix)";
  let module S = Cards_serve.Serve in
  let module St = Cards_util.Stats in
  let module F = Cards_net.Fabric in
  let fail fmt =
    Printf.ksprintf (fun m -> Printf.eprintf "SERVE: %s\n" m; exit 1) fmt
  in
  let n = 4 and seed = 7 and requests = 120 and base_gap = 40_000.0 in
  let faulty_tenant = 1 and fault_rate = 0.20 in
  let cfg = S.default_config in
  let run_mix ?faulty () =
    S.run cfg (S.zipf_mix ?faulty ~n ~seed ~requests ~base_gap ())
  in
  let p99 (tr : S.tenant_result) = St.percentile tr.S.tr_latency 99.0 in
  let check_exact tag (r : S.result) =
    let busy =
      Array.fold_left (fun acc tr -> acc + tr.S.tr_service_cycles) 0 r.S.tenants
    in
    if r.S.busy_cycles <> busy then
      fail "%s: busy %d <> sum of service cycles %d" tag r.S.busy_cycles busy;
    if r.S.total_cycles <> r.S.busy_cycles + r.S.idle_cycles then
      fail "%s: clock %d <> busy %d + idle %d" tag r.S.total_cycles
        r.S.busy_cycles r.S.idle_cycles;
    let bytes =
      Array.fold_left
        (fun acc tr -> acc + tr.S.tr_fabric.F.fetched_bytes)
        0 r.S.tenants
    in
    if r.S.fabric.F.fetched_bytes <> bytes then
      fail "%s: aggregate fetched bytes %d <> per-tenant sum %d" tag
        r.S.fabric.F.fetched_bytes bytes;
    let deficits =
      Array.fold_left (fun acc tr -> acc + tr.S.tr_deficit_end) 0 r.S.tenants
    in
    if r.S.granted - r.S.charged - r.S.forfeited <> deficits then
      fail "%s: DRR credit leaked (%d granted - %d charged - %d forfeited <> \
            %d in deficit)"
        tag r.S.granted r.S.charged r.S.forfeited deficits
  in
  let a = run_mix () in
  let a2 = run_mix () in
  let b = run_mix ~faulty:(faulty_tenant, fault_rate) () in
  check_exact "fault-free" a;
  check_exact "faulty" b;
  (* Same-seed determinism, whole result records. *)
  Array.iteri
    (fun i (tr : S.tenant_result) ->
      let tr2 = a2.S.tenants.(i) in
      if
        tr.S.tr_output <> tr2.S.tr_output
        || tr.S.tr_records <> tr2.S.tr_records
        || tr.S.tr_service_cycles <> tr2.S.tr_service_cycles
        || tr.S.tr_latency <> tr2.S.tr_latency
        || tr.S.tr_fabric <> tr2.S.tr_fabric
      then fail "%s: same-seed rerun diverged" tr.S.tr_name)
    a.S.tenants;
  if a.S.total_cycles <> a2.S.total_cycles then
    fail "same-seed rerun moved the serving clock (%d vs %d)" a.S.total_cycles
      a2.S.total_cycles;
  (* Faults move timing, never results. *)
  Array.iteri
    (fun i (tr : S.tenant_result) ->
      let trb = b.S.tenants.(i) in
      if tr.S.tr_output <> trb.S.tr_output then
        fail "%s: output changed under a faulty tenant" tr.S.tr_name;
      if List.map (fun (rc : Cards_serve.Tenant.record) -> rc.ret)
           tr.S.tr_records
         <> List.map (fun (rc : Cards_serve.Tenant.record) -> rc.ret)
              trb.S.tr_records
      then fail "%s: return values changed under a faulty tenant" tr.S.tr_name)
    a.S.tenants;
  (* Fairness: healthy tails hold while the faulty tenant degrades. *)
  let t =
    T.create
      ~title:(Printf.sprintf
                "4-tenant Zipf mix, seed %d — tenant %d faulty at %.0f%%"
                seed faulty_tenant (100.0 *. fault_rate))
      ~header:[ "tenant"; "served"; "svc clean"; "svc faulty"; "p99 clean";
                "p99 faulty"; "p99 ratio"; "degrade" ]
  in
  Array.iteri
    (fun i (tra : S.tenant_result) ->
      let trb = b.S.tenants.(i) in
      let ratio = p99 trb /. p99 tra in
      if i <> faulty_tenant && ratio > 1.5 then
        fail "%s: healthy p99 blew past the 1.5x gate (%.3f)" tra.S.tr_name
          ratio;
      T.add_row t
        [ tra.S.tr_name; string_of_int tra.S.tr_served;
          mcycles tra.S.tr_service_cycles; mcycles trb.S.tr_service_cycles;
          mcycles (int_of_float (p99 tra)); mcycles (int_of_float (p99 trb));
          Printf.sprintf "%.3f" ratio; string_of_int trb.S.tr_degrade_level ])
    a.S.tenants;
  T.print t;
  let fa = a.S.tenants.(faulty_tenant) and fb = b.S.tenants.(faulty_tenant) in
  if fb.S.tr_service_cycles <= fa.S.tr_service_cycles then
    fail "faulty tenant did not pay for its faults (%d <= %d service cycles)"
      fb.S.tr_service_cycles fa.S.tr_service_cycles;
  if fb.S.tr_degrade_level < 1 then
    fail "faulty tenant never degraded (level %d)" fb.S.tr_degrade_level;
  if fb.S.tr_fabric.F.faults_transient + fb.S.tr_fabric.F.faults_late
     + fb.S.tr_fabric.F.faults_dup = 0
  then fail "fault injector never fired on the faulty tenant";
  print_newline ();
  T.print
    (O.Export.serve_latency_table
       ~title:"Per-tenant request latency (faulty run)"
       (Array.to_list
          (Array.map
             (fun (tr : S.tenant_result) ->
               (tr.S.tr_name, tr.S.tr_latency, tr.S.tr_served))
             b.S.tenants)));
  (* Record per-tenant experiments (service cycles + fabric) and p99
     pseudo-experiments for both runs; all deterministic. *)
  let record prefix (r : S.result) =
    Array.iter
      (fun (tr : S.tenant_result) ->
        experiments :=
          J.Obj
            [ ("tag", J.Str (prefix ^ "-" ^ tr.S.tr_name));
              ("cycles", J.Int tr.S.tr_service_cycles);
              ("fabric", fabric_json tr.S.tr_fabric) ]
          :: !experiments;
        experiments :=
          J.Obj
            [ ("tag", J.Str (prefix ^ "-" ^ tr.S.tr_name ^ "-p99"));
              ("cycles", J.Int (int_of_float (p99 tr)));
              ("fabric", fabric_json tr.S.tr_fabric) ]
          :: !experiments)
      r.S.tenants;
    experiments :=
      J.Obj
        [ ("tag", J.Str (prefix ^ "-total"));
          ("cycles", J.Int r.S.total_cycles);
          ("fabric", fabric_json r.S.fabric) ]
      :: !experiments
  in
  record "serve-clean" a;
  record "serve-faulty" b;
  Printf.printf
    "\n-- serving clock %s Mc (%s busy, %s idle), %d DRR rounds; every\n\
     \   decomposition, determinism and isolation check above is a hard\n\
     \   assertion; healthy p99 ratios gated at 1.5x.\n"
    (mcycles a.S.total_cycles) (mcycles a.S.busy_cycles)
    (mcycles a.S.idle_cycles) a.S.rounds

(* ---------- par: domain-parallel serving, same bits faster -------- *)

(* Wall clock, not CPU time: a 4-domain run burns ~4 CPU-seconds per
   wall-second, which is exactly the effect under test — [Sys.time]
   would report the parallel run as no faster (or slower). *)
let wall = Unix.gettimeofday

let par_section () =
  header "Par: parallel serving on OCaml 5 domains (deterministic virtual time)";
  let module S = Cards_serve.Serve in
  let module E = Cards_par.Engine in
  let module F = Cards_net.Fabric in
  let fail fmt =
    Printf.ksprintf (fun m -> Printf.eprintf "PAR: %s\n" m; exit 1) fmt
  in
  let n = 8 and seed = 11 and requests = 60 and gap = 30_000.0 in
  let cfg = S.default_config in
  (* Two mixes: the uniform kv mix is perfectly balanced across
     domains, so it is the wall-clock scaling specimen; the Zipf mix
     carries analytics tenants with real fabric traffic, so its cells
     exercise fetches, faults and the byte decompositions — which the
     all-local kv mix would satisfy vacuously. *)
  let specs ?faulty () = S.uniform_mix ?faulty ~n ~seed ~requests ~gap () in
  let zspecs ?faulty () =
    S.zipf_mix ?faulty ~n:4 ~seed:7 ~requests:60 ~base_gap:40_000.0 ()
  in
  (* Bit-identicality is checked on whole records — the structural
     compare covers every tenant ledger, output line, latency sample,
     fabric counter and the interference matrix at once; the per-tenant
     loop just names the first divergence usefully. *)
  let assert_identical tag (p : S.result) (q : S.result) =
    Array.iteri
      (fun i (tp : S.tenant_result) ->
        if tp <> q.S.tenants.(i) then
          fail "%s: tenant %s diverged from the sequential run" tag
            tp.S.tr_name)
      p.S.tenants;
    if p <> q then fail "%s: aggregate results diverged" tag
  in
  let seq = S.run cfg (specs ()) in
  let zseq = S.run cfg (zspecs ()) in
  (* Exactness of the sequential references themselves, so identical
     parallel runs inherit the same decompositions.  The byte check
     runs on the Zipf mix, whose analytics tenants actually fetch. *)
  let check_exact tag (r : S.result) =
    let busy =
      Array.fold_left (fun acc tr -> acc + tr.S.tr_service_cycles) 0 r.S.tenants
    in
    if r.S.busy_cycles <> busy then
      fail "%s: busy %d <> sum of service cycles %d" tag r.S.busy_cycles busy;
    if r.S.total_cycles <> r.S.busy_cycles + r.S.idle_cycles then
      fail "%s: clock %d <> busy + idle" tag r.S.total_cycles;
    let bytes =
      Array.fold_left
        (fun acc tr -> acc + tr.S.tr_fabric.F.fetched_bytes)
        0 r.S.tenants
    in
    if r.S.fabric.F.fetched_bytes <> bytes then
      fail "%s: aggregate fetched bytes %d <> per-tenant sum %d" tag
        r.S.fabric.F.fetched_bytes bytes
  in
  check_exact "seq uniform" seq;
  check_exact "seq zipf" zseq;
  if zseq.S.fabric.F.fetched_bytes = 0 then
    fail "zipf mix moved no bytes: the fabric cells below are vacuous";
  (* Every domain count, both mixes, a faulty-fabric cell, and a
     same-count rerun all produce the same bits. *)
  List.iter
    (fun domains ->
      assert_identical
        (Printf.sprintf "uniform d=%d" domains)
        (E.run ~domains cfg (specs ()))
        seq;
      assert_identical
        (Printf.sprintf "zipf d=%d" domains)
        (E.run ~domains cfg (zspecs ()))
        zseq)
    [ 1; 2; 4 ];
  let faulty = Some (1, 0.20) in
  let zseq_f = S.run cfg (zspecs ?faulty ()) in
  let injected (r : S.result) =
    r.S.fabric.F.faults_transient + r.S.fabric.F.faults_late
    + r.S.fabric.F.faults_dup
  in
  if injected zseq_f = 0 then
    fail "fault injector never fired: the faulty cell is vacuous";
  assert_identical "zipf faulty d=4"
    (E.run ~domains:4 cfg (zspecs ?faulty ()))
    zseq_f;
  assert_identical "par rerun d=4"
    (E.run ~domains:4 cfg (specs ()))
    (E.run ~domains:4 cfg (specs ()));
  (* Wall clock: one warmup, then best of three (noise only ever slows
     a run down), of the sequential scheduler — what `cards serve
     --domains 1` runs — against the engine on 4 domains: 3 workers
     and the coordinator, which executes requests too.  The >=2.5x gate
     arms only where it is physically possible; on fewer than 4 cores
     the bits above are the contract and the measured ratio is
     reported, not asserted. *)
  let time_run serve =
    ignore (serve (specs ()));
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = wall () in
      ignore (serve (specs ()));
      best := Float.min !best (wall () -. t0)
    done;
    !best
  in
  let measure () =
    let t1 = time_run (S.run cfg) in
    let t4 = time_run (E.run ~domains:3 cfg) in
    (t1, t4, t1 /. Float.max t4 1e-9)
  in
  let cores = Domain.recommended_domain_count () in
  (* Like the host engine gate: a shared host can dip below the bar on
     one sample; re-measure before declaring failure. *)
  let rec settle (t1, t4, speedup) attempt =
    if speedup >= 2.5 || attempt >= 3 || cores < 4 then (t1, t4, speedup)
    else settle (measure ()) (attempt + 1)
  in
  let t1, t4, speedup = settle (measure ()) 1 in
  let t =
    T.create ~title:"wall clock, 8-tenant uniform kv mix (best of 3)"
      ~header:[ "domains"; "seconds"; "speedup" ]
  in
  T.add_row t [ "1 (sequential)"; Printf.sprintf "%.3f" t1; fx 1.0 ];
  T.add_row t [ "4"; Printf.sprintf "%.3f" t4; fx speedup ];
  T.print t;
  if cores >= 4 then begin
    if speedup < 2.5 then
      fail "4-domain speedup %.2fx below the 2.5x gate (%d cores)" speedup
        cores
  end
  else
    Printf.printf
      "\n-- host reports %d core(s): the >=2.5x @ 4 domains wall-clock gate \
       needs >= 4;\n\
       \   asserting bit-identicality only (measured %.2fx).\n"
      cores speedup;
  (* Only deterministic numbers are gated: per-tenant service cycles and
     fabric counters from the (identical) runs.  The wall-clock entry
     carries no "cycles"/"fabric" fields, so the regression gate ignores
     it — it is a recorded observation, not a contract. *)
  let record prefix (r : S.result) =
    Array.iter
      (fun (tr : S.tenant_result) ->
        experiments :=
          J.Obj
            [ ("tag", J.Str (prefix ^ "-" ^ tr.S.tr_name));
              ("cycles", J.Int tr.S.tr_service_cycles);
              ("fabric", fabric_json tr.S.tr_fabric) ]
          :: !experiments)
      r.S.tenants;
    experiments :=
      J.Obj
        [ ("tag", J.Str (prefix ^ "-total"));
          ("cycles", J.Int r.S.total_cycles);
          ("fabric", fabric_json r.S.fabric) ]
      :: !experiments
  in
  record "par" seq;
  record "par-zipf" zseq;
  record "par-zipf-faulty" zseq_f;
  experiments :=
    J.Obj
      [ ("tag", J.Str "par-wallclock-info");
        ("cores", J.Int cores);
        ("speedup_milli", J.Int (int_of_float (speedup *. 1000.0)));
        ("gate_armed", J.Int (if cores >= 4 then 1 else 0)) ]
    :: !experiments;
  Printf.printf
    "\n-- all domain counts bit-identical to the sequential scheduler \
     (clean,\n\
     \   faulty, rerun); serving clock %s Mc either way.\n"
    (mcycles seq.S.total_cycles)

(* ---------------------------------------------------------------- *)

let sections =
  [ ("table1", table1); ("fig4", fig4); ("fig5", fig5); ("fig6", fig6);
    ("fig7", fig7); ("fig8", fig8); ("fig9", fig9);
    ("fabric", fabric_section); ("profile", profile_section);
    ("attr", attr_section); ("faults", faults_section);
    ("spans", spans_section); ("layout", layout_section);
    ("whatif", whatif_section); ("serve", serve_section);
    ("par", par_section);
    ("ablations", ablations);
    ("bechamel", bechamel); ("host", host) ]

let () =
  let rec strip acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
      json_out := Some path;
      strip acc rest
    | "--json" :: [] ->
      Printf.eprintf "--json needs a FILE argument\n";
      exit 1
    | "--compare" :: path :: rest ->
      compare_to := Some path;
      strip acc rest
    | "--compare" :: [] ->
      Printf.eprintf "--compare needs a BASELINE.json argument\n";
      exit 1
    | "--tolerance" :: v :: rest ->
      (match float_of_string_opt v with
       | Some f when f >= 0.0 -> tolerance := f
       | _ ->
         Printf.eprintf "--tolerance needs a non-negative float, got %S\n" v;
         exit 1);
      strip acc rest
    | "--tolerance" :: [] ->
      Printf.eprintf "--tolerance needs a FLOAT argument\n";
      exit 1
    | "--only" :: name :: rest ->
      (* Synonym for the positional form, but validated up front so a
         scripted `--only typo` dies before running anything. *)
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "--only %S: unknown section; available: %s\n" name
          (String.concat " " (List.map fst sections));
        exit 1
      end;
      strip (name :: acc) rest
    | "--only" :: [] ->
      Printf.eprintf "--only needs a SECTION argument\n";
      exit 1
    | "--list" :: _ ->
      List.iter (fun (n, _) -> print_endline n) sections;
      exit 0
    | arg :: rest -> strip (arg :: acc) rest
  in
  let args = strip [] (List.tl (Array.to_list Sys.argv)) in
  (* Read the baseline up front so `--json X --compare X` gates against
     the committed snapshot, then refreshes it. *)
  let baseline =
    Option.map
      (fun path ->
        match O.Regress.load_file path with
        | doc -> (path, doc)
        | exception Sys_error msg ->
          Printf.eprintf "cannot read baseline %s: %s\n" path msg;
          exit 1
        | exception Cards_util.Json.Parse_error msg ->
          Printf.eprintf "cannot parse baseline %s: %s\n" path msg;
          exit 1)
      !compare_to
  in
  let chosen = if args = [] then List.map fst sections else args in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat " " (List.map fst sections));
        exit 1)
    chosen;
  write_json ();
  match baseline with
  | None -> ()
  | Some (path, base) ->
    let violations =
      O.Regress.compare_snapshots ~tolerance:!tolerance ~baseline:base
        ~current:(current_doc ()) ()
    in
    if violations = [] then
      Printf.eprintf "-- regression gate: %d experiment(s) within %.1f%% of %s\n"
        (List.length !experiments) (100.0 *. !tolerance) path
    else begin
      List.iter
        (fun v -> Printf.eprintf "%s\n" (O.Regress.format_violation v))
        violations;
      Printf.eprintf "-- regression gate: %d violation(s) against %s\n"
        (List.length violations) path;
      exit 1
    end
