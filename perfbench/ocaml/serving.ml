(* The serve workload: the standard four-tenant Zipf mix, tenant 1 on a
   20%-faulty fabric slice, served through the parallel engine. *)

module S = Cards_serve.Serve
module T = Cards_serve.Tenant
module A = Cards_serve.Admission
module P = Cards.Pipeline
module R = Cards_runtime
module M = Cards_interp.Machine
module F = Cards_net.Fabric
module Stats = Cards_util.Stats
open Measure

let faulty = 1
let cfg = S.default_config

let mix ?(faults = true) ~seed ~requests () =
  S.zipf_mix
    ?faulty:(if faults then Some (faulty, 0.20) else None)
    ~n:4 ~seed:(Programs.mc_seed seed) ~requests ~base_gap:40_000.0 ()

(* Workers plus the coordinating domain never exceed the host's cores. *)
let domains ~nproc = max 1 (nproc - 1)

let par_run ~nproc specs = Cards_par.Engine.run ~domains:(domains ~nproc) cfg specs

(* Sequential construction through the public prepare/build split,
   admitting each tenant as Serve.run does. *)
let build_tenants specs =
  let adm = A.create ~budget_bytes:cfg.S.pin_budget in
  let share = cfg.S.pin_budget / Array.length specs in
  let tenants =
    Array.map
      (fun spec ->
        let prep =
          Tracer.span "serve.prepare" (fun () ->
              T.prepare ~base:cfg.S.base ~engine:cfg.S.engine
                ~pin_share:(min share (A.available adm)) spec)
        in
        let t = Tracer.span "serve.build" (fun () -> T.build prep) in
        if not (A.admit adm ~bytes:(T.pinned_granted t)) then
          failwith "admission refused a planned tenant";
        t)
      specs
  in
  (tenants, A.admitted_bytes adm)

(* The sequential DRR loop, each dispatch's execute and commit halves
   timed apart; the drive span's self time is the scheduler's own. *)
let drive (tenants, admitted) =
  Tracer.span "serve.drive" (fun () ->
      S.drive cfg ~tenants ~pin_admitted:admitted ~serve:(fun i ~now ->
          let e = Tracer.span "serve.exec" (fun () -> T.exec_next tenants.(i)) in
          Tracer.span "serve.commit" (fun () -> T.commit tenants.(i) ~now e)))

let served (r : S.result) =
  Array.fold_left (fun a (tr : S.tenant_result) -> a + tr.S.tr_served) 0 r.S.tenants

(* Request latency (wait + service from the arrival time) over the
   healthy tenants. *)
let healthy_latency (r : S.result) =
  let acc = ref (Stats.create ()) in
  Array.iteri
    (fun i (tr : S.tenant_result) ->
      if i <> faulty then acc := Stats.merge !acc tr.S.tr_latency)
    r.S.tenants;
  !acc

(* A transformed function's appended handle parameters, resolved
   through the compiler's handle plan as a tenant resolves them. *)
let handles_for tbl rt (c : P.compiled) fname =
  List.map
    (fun sid ->
      match Hashtbl.find_opt tbl sid with
      | Some h -> h
      | None ->
        let h = R.Runtime.ds_init rt ~sid in
        Hashtbl.replace tbl sid h;
        h)
    (List.assoc fname c.P.fn_arg_sids)

(* A tenant's own runtime configuration, derived as Tenant.build does:
   footprint probe of setup(), Max-Use plan within the admission share,
   namespace and fault slice. *)
let tenant_config ~share (spec : T.spec) (c : P.compiled) =
  let base = cfg.S.base in
  let probe =
    R.Runtime.create
      { base with
        R.Runtime.policy = R.Policy.All_remotable; namespace = "";
        fabric_config = { base.R.Runtime.fabric_config with F.faults = F.no_faults } }
      c.P.infos
  in
  let s = M.session ~engine:cfg.S.engine c.P.instrumented probe in
  ignore (M.call s "setup" (handles_for (Hashtbl.create 8) probe c "setup"));
  let bytes = Array.make (Array.length c.P.infos) 0 in
  List.iter
    (fun (r : R.Runtime.ds_report) ->
      if r.r_sid >= 0 && r.r_sid < Array.length bytes then
        bytes.(r.r_sid) <- bytes.(r.r_sid) + r.r_bytes)
    (R.Runtime.report probe);
  let policy, _ = Cards_serve.Kbudget.plan ~infos:c.P.infos ~bytes ~budget:share in
  { base with
    R.Runtime.policy; namespace = spec.T.name;
    fabric_config =
      { base.R.Runtime.fabric_config with
        F.faults =
          { F.no_faults with
            F.fault_rate = spec.T.fault_rate; fault_seed = spec.T.seed lxor 0x5e4e } } }

type replay = {
  instrs : int;
  exec_s : float;
  words : float;
  spans : int;
  mismatches : int;
}

(* Re-execute every served request outside the serving layer, which
   keeps the interpreter's instruction count to itself.  Each tenant
   runs its own module under its own configuration, so every request's
   cost must reproduce the served record exactly; [plain] instead runs
   the guard-free module all-local (the interpreter alone) and checks
   return values only. *)
let replay ?(plain = false) ?span_rate specs (r : S.result) =
  let share = cfg.S.pin_budget / Array.length specs in
  let instrs = ref 0 and exec_s = ref 0.0 and words = ref 0.0 in
  let spans = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun i (spec : T.spec) ->
      let c = P.compile_source spec.T.source in
      let rcfg = if plain then Programs.all_local else tenant_config ~share spec c in
      let obs = Option.map (fun rate -> Cards_obs.Sink.create ~span_rate:rate ()) span_rate in
      let rt = R.Runtime.create ?obs rcfg c.P.infos in
      let s = M.session ~engine:cfg.S.engine (if plain then c.P.plain else c.P.instrumented) rt in
      let tbl = Hashtbl.create 8 in
      ignore (M.call s "setup" (handles_for tbl rt c "setup"));
      let w0 = Gc.minor_words () in
      List.iter
        (fun (rc : T.record) ->
          let { Cards_serve.Loadgen.op; a; b } = rc.T.req in
          let args = [ op; a; b ] @ handles_for tbl rt c "req" in
          let res, dt = timed (fun () -> M.call s "req" args) in
          exec_s := !exec_s +. dt;
          instrs := !instrs + res.M.instructions;
          if res.M.ret <> rc.T.ret || ((not plain) && res.M.cycles <> rc.T.cost) then
            incr mismatches)
        r.S.tenants.(i).S.tr_records;
      words := !words +. (Gc.minor_words () -. w0);
      Option.iter
        (fun o ->
          match Cards_obs.Sink.spans o with
          | Some col -> spans := !spans + Cards_obs.Span.length col
          | None -> ())
        obs)
    specs;
  { instrs = !instrs; exec_s = !exec_s; words = !words; spans = !spans;
    mismatches = !mismatches }

(* The oracle: the same mix with faults off, served sequentially by the
   reference engine, compared request by request (return values) and
   line by line (printed output).  Faults move timing, never results. *)
let oracle_mismatches ~seed ~requests (r : S.result) =
  let o = S.run { cfg with S.engine = M.Reference } (mix ~faults:false ~seed ~requests ()) in
  let bad = ref 0 in
  Array.iteri
    (fun i (tr : S.tenant_result) ->
      let want = o.S.tenants.(i) in
      let same (x : T.record) (y : T.record) = x.T.req = y.T.req && x.T.ret = y.T.ret in
      if List.length tr.S.tr_records <> List.length want.S.tr_records then
        bad := !bad + List.length tr.S.tr_records
      else
        List.iter2 (fun x y -> if not (same x y) then incr bad) tr.S.tr_records
          want.S.tr_records;
      if tr.S.tr_output <> want.S.tr_output && !bad = 0 then incr bad)
    r.S.tenants;
  !bad

let setup_reps = 25

(* A run serves [mixes] independent mixes, seeds derived from the run's.
   The timed phase makes whole passes over short mixes, so every run
   times the same work and each mix counts with its fastest pass; a pass
   must be short enough for several to fit.  Serving latency over a mix
   swings with its arrival stream and needs long mixes for its queues to
   build, so the simulated metrics come from one untimed serving of
   [mixes] mixes of [sim_requests] each, pooled. *)
let mixes = 8

let end_to_end ~seconds ~nproc ~seed ~requests ~sim_requests =
  let seeds = Array.init mixes (fun j -> (seed * mixes) + j) in
  let specs = Array.map (fun seed -> mix ~seed ~requests ()) seeds in
  (* Set-up is timed before the timed phase: after it, with every pass's
     results live, its median spread by 0.60 across ten runs, against
     0.10-0.44 in three sets of ten before. *)
  let setup_s =
    median
      (List.init setup_reps (fun j ->
           Gc.full_major ();
           snd (timed (fun () -> build_tenants specs.(j mod mixes)))))
  in
  let rss = ref 0.0 in
  let passes =
    repeat_for ~after_first:(fun () -> rss := peak_rss_mb ()) ~seconds (fun () ->
        Array.map (fun sp -> timed (fun () -> par_run ~nproc sp)) specs)
    |> List.map fst
  in
  let first = Array.map fst (List.hd passes) in
  let repeatable =
    List.for_all (fun pass -> Array.for_all2 (fun (r, _) f -> r = f) pass first) passes
  in
  let pass_wall =
    Array.fold_left ( +. ) 0.0
      (Array.init mixes (fun k -> fastest (List.map (fun pass -> snd pass.(k)) passes)))
  in
  let npasses = List.length passes in
  let reps = Array.mapi (fun k sp -> replay sp first.(k)) specs in
  let instrs = Array.fold_left (fun a r -> a + r.instrs) 0 reps in
  let mismatched = Array.fold_left (fun a r -> a + r.mismatches) 0 reps in
  let bad =
    Array.fold_left ( + ) 0
      (Array.mapi (fun k seed -> oracle_mismatches ~seed ~requests first.(k)) seeds)
  in
  let long = Array.map (fun seed -> S.run cfg (mix ~seed ~requests:sim_requests ())) seeds in
  let lat = Array.fold_left (fun acc r -> Stats.merge acc (healthy_latency r)) (Stats.create ()) long in
  let clock = Array.fold_left (fun a r -> a + r.S.total_cycles) 0 long in
  let problems =
    (if repeatable then [] else [ "serving runs of one seed disagree" ])
    @ (if mismatched = 0 then []
       else [ Printf.sprintf "%d replayed requests differ from the served records" mismatched ])
    @ if bad = 0 then [] else [ Printf.sprintf "%d requests differ from the oracle" bad ]
  in
  let served_once = Array.fold_left (fun a r -> a + served r) 0 first in
  { correct = problems = []; attempted = served_once * npasses; failed = bad * npasses;
    problems;
    metrics =
      [ m "setup_s" "s" setup_s;
        m "wall_s" "s" pass_wall;
        m "minstr_per_s" "Minstr/s" (float_of_int instrs /. pass_wall /. 1e6);
        m "req_per_s" "1/s" (float_of_int served_once /. pass_wall);
        m "sim_mcycles" "Mcycles" (float_of_int clock /. 1e6);
        m "sim_p50_kcycles" "kcycles" (Stats.percentile lat 50.0 /. 1e3);
        m "sim_p99_kcycles" "kcycles" (Stats.percentile lat 99.0 /. 1e3);
        m "peak_rss_mb" "MiB" !rss ] }

let anchor () =
  let r = S.run cfg (S.zipf_mix ~faulty:(faulty, 0.20) ~n:4 ~seed:7 ~requests:120 ~base_gap:40_000.0 ()) in
  ("serve-faulty-total", r.S.total_cycles, 205_923_821)

let traced ~nproc ~seed ~requests =
  let problems = ref [] in
  let check ok msg = if not ok then problems := msg :: !problems in
  let tag, got, want = anchor () in
  check (got = want) (Printf.sprintf "anchor %s: %d cycles, committed %d" tag got want);
  let seed = seed * mixes in
  let specs = mix ~seed ~requests () in
  (* Compile and decode each tenant program as Tenant.prepare and
     Machine.session do. *)
  let replays =
    Tracer.traced (fun () ->
        Array.to_list
          (Array.map (fun (s : T.spec) -> Compile_replay.run ~options:P.cards_options s.T.source) specs))
  in
  List.iteri
    (fun i r ->
      let c = P.compile_source specs.(i).T.source in
      check (Compile_replay.matches c r) "replayed compile differs from Pipeline.compile";
      Tracer.traced (fun () ->
          let rt = R.Runtime.create cfg.S.base c.P.infos in
          let st = Tracer.span "interp.setup" (fun () -> Cards_interp.Sem.setup c.P.instrumented rt) in
          ignore (Tracer.span "interp.decode" (fun () -> Cards_interp.Decode.prepare st c.P.instrumented))))
    replays;
  let par, par_wall = timed (fun () -> par_run ~nproc specs) in
  let seq, seq_wall = timed (fun () -> S.run cfg specs) in
  check (seq = par) "the parallel engine's result differs from Serve.run's";
  let (tenants, traced), traced_wall =
    Tracer.traced (fun () ->
        timed (fun () ->
            let built = build_tenants specs in
            (fst built, drive built)))
  in
  check (traced = par) "the traced run differs from the bare run";
  let snapshot = sum_counters (Array.to_list (Array.map (fun t -> counters (T.runtime t)) tenants)) in
  let fetch_lat =
    Array.fold_left
      (fun acc t -> Stats.merge acc (Cards_obs.Profile.merged_latency (R.Runtime.profile (T.runtime t))))
      (Stats.create ()) tenants
  in
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  let inst = Tracer.traced (fun () -> Tracer.span "interp.replay" (fun () -> replay specs par)) in
  let majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
  let plain = replay ~plain:true specs par in
  let spanned = replay ~span_rate:1.0 specs par in
  check (inst.mismatches + plain.mismatches + spanned.mismatches = 0)
    "replayed requests differ from the served records";
  let bad = oracle_mismatches ~seed ~requests par in
  check (bad = 0) (Printf.sprintf "%d requests differ from the oracle" bad);
  let n = float_of_int (served par) in
  let per_req_us name = Tracer.self_ms name *. 1000.0 /. n in
  let stolen = Array.fold_left (Array.fold_left ( + )) 0 par.S.stolen in
  let instrs = float_of_int inst.instrs in
  { correct = !problems = []; attempted = served par; failed = bad;
    problems = List.rev !problems;
    metrics =
      Compile_replay.metrics replays
      @ [ m "interp.decode_ms" "ms" (Tracer.self_ms "interp.decode");
          m "interp.instructions" "count" instrs;
          m "interp.ns_per_instr" "ns" (plain.exec_s *. 1e9 /. float_of_int plain.instrs);
          m "interp.minor_words_per_instr" "words" (inst.words /. instrs);
          m "interp.major_collections" "count" (float_of_int majors);
          m "runtime.overhead_s" "s" (inst.exec_s -. plain.exec_s);
          m "runtime.fetch_p50_kcycles" "kcycles" (Stats.percentile fetch_lat 50.0 /. 1e3);
          m "runtime.fetch_p99_kcycles" "kcycles" (Stats.percentile fetch_lat 99.0 /. 1e3) ]
      @ layer_metrics snapshot
      @ [ m "obs.span_overhead_x" "x" (spanned.exec_s /. inst.exec_s);
          m "obs.spans" "count" (float_of_int spanned.spans);
          m "obs.trace_overhead_x" "x" (traced_wall /. seq_wall);
          m "serve.prepare_ms" "ms" (Tracer.self_ms "serve.prepare");
          m "serve.build_ms" "ms" (Tracer.self_ms "serve.build");
          m "serve.exec_us_per_req" "us" (per_req_us "serve.exec");
          m "serve.commit_us_per_req" "us" (per_req_us "serve.commit");
          m "serve.drr_us_per_req" "us" (per_req_us "serve.drive");
          m "serve.drr_rounds" "count" (float_of_int par.S.rounds);
          m "serve.idle_frac" "ratio"
            (ratio (float_of_int par.S.idle_cycles) (float_of_int par.S.total_cycles));
          m "serve.stolen_mcycles" "Mcycles" (float_of_int stolen /. 1e6);
          m "serve.faulty_degrade_level" "count"
            (float_of_int par.S.tenants.(faulty).S.tr_degrade_level);
          m "par.coord_us_per_record" "us" ((par_wall -. seq_wall) *. 1e6 /. n);
          m "par.speedup_vs_seq" "x" (seq_wall /. par_wall) ] }
