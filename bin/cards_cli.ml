(* The `cards` command-line driver.

     cards compile FILE.mc [--dump STAGE] [--table]
     cards run FILE.mc [--system S] [--policy P] [--k F] [--local N]
                       [--remotable N] [--prefetch M] [--report]
     cards workload NAME [--scale N]    (emit a bundled workload's MiniC)

   `cards run --system trackfm` and `--system mira` run the baseline
   models; `--system plain` runs the guard-free all-local upper bound. *)

module R = Cards_runtime
module P = Cards.Pipeline
module W = Cards_workloads
module B = Cards_baselines
module T = Cards_util.Table
module O = Cards_obs

open Cmdliner

(* ---------- shared helpers ---------- *)

let read_source path =
  if Filename.check_suffix path ".mc" || Filename.check_suffix path ".c" then begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  end
  else failwith (path ^ ": expected a .mc MiniC source file")

let with_errors f =
  try f () with
  | Cards_ir.Ast.Syntax_error (pos, msg) ->
    Printf.eprintf "syntax error: line %d, col %d: %s\n" pos.line pos.col msg;
    exit 1
  | Cards_interp.Machine.Trap msg ->
    Printf.eprintf "trap: %s\n" msg;
    exit 2
  | R.Runtime.Runtime_error msg ->
    Printf.eprintf "runtime error: %s\n" msg;
    exit 2
  | Failure msg | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

let print_static_table infos =
  let t =
    T.create ~title:"Static data-structure table"
      ~header:[ "sid"; "name"; "object"; "prefetch"; "use"; "reach"; "recursive" ]
  in
  Array.iter
    (fun (i : R.Static_info.t) ->
      T.add_row t
        [ string_of_int i.sid; i.name; string_of_int i.obj_size;
          R.Static_info.prefetch_class_name i.prefetch;
          string_of_int i.score_use; string_of_int i.score_reach;
          string_of_bool i.recursive ])
    infos;
  T.print t

(* ---------- cards compile ---------- *)

let dump_stage =
  let stages = [ ("source", `Source); ("pooled", `Pooled); ("final", `Final) ] in
  Arg.(value & opt (some (enum stages)) None
       & info [ "dump" ] ~docv:"STAGE"
           ~doc:"Print the IR at a pipeline stage: $(b,source) (after the \
                 frontend), $(b,pooled) (after pool allocation), or \
                 $(b,final) (guards + versioning).")

let show_table =
  Arg.(value & flag
       & info [ "table" ] ~doc:"Print the static data-structure table.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc")

let factorize_arg =
  Arg.(value & flag
       & info [ "factorize" ]
           ~doc:"Run the layout-factorization pass: split rarely-read \
                 fields of recursive structures into a compiled side \
                 pool (the hot node shrinks to its frequently-accessed \
                 fields plus an index) and rewrite eligible row-major \
                 record arrays to column-major (AoS to SoA).  Program \
                 output is unchanged; fetched bytes shrink when the \
                 access pattern is skewed.")

let compile_cmd =
  let run file dump table factorize =
    with_errors (fun () ->
        let options = { P.cards_options with factorize } in
        let compiled = P.compile_source ~options (read_source file) in
        Printf.printf
          "%d data structures, %d guards (after removing %d), %d loops versioned\n"
          (Array.length compiled.infos) compiled.static_guards
          compiled.guards_removed compiled.versioned_loops;
        if factorize then
          Printf.printf
            "layout factorization: %d hot/cold splits, %d AoS-to-SoA rewrites\n"
            (Cards_transform.Factorize.splits_last_run ())
            (Cards_transform.Factorize.soa_last_run ());
        if table then print_static_table compiled.infos;
        match dump with
        | Some `Source ->
          print_string (Cards_ir.Printer.module_to_string compiled.source)
        | Some `Pooled ->
          print_string (Cards_ir.Printer.module_to_string compiled.plain)
        | Some `Final ->
          print_string (Cards_ir.Printer.module_to_string compiled.instrumented)
        | None -> ())
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a MiniC file with the CaRDS pipeline")
    Term.(const run $ file_arg $ dump_stage $ show_table $ factorize_arg)

(* ---------- cards run ---------- *)

let policy_conv =
  let policies =
    [ ("linear", R.Policy.Linear); ("random", R.Policy.Random 7);
      ("max-use", R.Policy.Max_use); ("max-reach", R.Policy.Max_reach);
      ("all-remotable", R.Policy.All_remotable); ("all-local", R.Policy.All_local) ]
  in
  Arg.enum policies

let policy_arg =
  Arg.(value & opt policy_conv R.Policy.Linear
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Remoting policy: $(b,linear), $(b,random), $(b,max-use), \
                 $(b,max-reach), $(b,all-remotable), $(b,all-local).")

let k_arg =
  Arg.(value & opt float 1.0
       & info [ "k" ] ~docv:"FRACTION"
           ~doc:"Fraction of data structures preferring pinned memory.")

let bytes_conv =
  let parse s =
    let mult, digits =
      let n = String.length s in
      if n = 0 then (1, s)
      else
        match s.[n - 1] with
        | 'k' | 'K' -> (1024, String.sub s 0 (n - 1))
        | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
        | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
        | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some v -> Ok (v * mult)
    | None -> Error (`Msg (s ^ ": not a size (use e.g. 64M, 512K)"))
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%d" v)

let local_arg =
  Arg.(value & opt bytes_conv (64 * 1024 * 1024)
       & info [ "local" ] ~docv:"BYTES" ~doc:"Local memory size (e.g. 64M).")

let remot_arg =
  Arg.(value & opt bytes_conv (8 * 1024 * 1024)
       & info [ "remotable" ] ~docv:"BYTES"
           ~doc:"Remotable-cache share of local memory (e.g. 8M).")

let prefetch_arg =
  let modes =
    [ ("per-class", R.Runtime.Pf_per_class);
      ("adaptive", R.Runtime.Pf_adaptive);
      ("stride-only", R.Runtime.Pf_stride_only);
      ("none", R.Runtime.Pf_none) ]
  in
  Arg.(value & opt (enum modes) R.Runtime.Pf_per_class
       & info [ "prefetch" ] ~docv:"MODE"
           ~doc:"Prefetch mode: $(b,per-class), $(b,adaptive), \
                 $(b,stride-only), $(b,none).")

let system_arg =
  Arg.(value & opt (enum [ ("cards", `Cards); ("trackfm", `Trackfm);
                           ("mira", `Mira); ("plain", `Plain) ]) `Cards
       & info [ "system" ] ~docv:"SYSTEM"
           ~doc:"Which system to run: $(b,cards) (default), $(b,trackfm), \
                 $(b,mira) (profile-guided), $(b,plain) (all-local, no \
                 guards).")

let report_arg =
  Arg.(value & flag & info [ "report" ] ~doc:"Print the per-structure report.")

let engine_arg =
  Arg.(value
       & opt (enum [ ("decoded", Cards_interp.Machine.Decoded);
                     ("ref", Cards_interp.Machine.Reference) ])
           Cards_interp.Machine.Decoded
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: $(b,decoded) (default; functions \
                 pre-compiled to closure arrays at load time) or $(b,ref) \
                 (the reference tree-walking interpreter).  Both are \
                 bit-identical in output, cycles, and statistics; only \
                 wall-clock speed differs.")

let prefetch_bytes_arg =
  Arg.(value & opt (some bytes_conv) None
       & info [ "prefetch-bytes" ] ~docv:"BYTES"
           ~doc:"Per-structure prefetch budget in bytes (e.g. 64K): the \
                 run-ahead depth becomes $(i,BYTES) / object size, clamped \
                 to [1,64], so factorized hot pools with small objects run \
                 proportionally deeper.  Overrides the fixed depth.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"Domains to run on, the calling one included (OCaml 5 \
                 parallelism).  Output, cycle counts and every ledger are \
                 bit-identical for any count; only wall-clock time \
                 changes.")

let qp_arg =
  Arg.(value & opt int
         R.Runtime.default_config.fabric_config.Cards_net.Fabric.qp_count
       & info [ "qp" ] ~docv:"N"
           ~doc:"Inbound fabric queue pairs with least-loaded dispatch \
                 (cards system; TrackFM is single-queue by design).")

let no_batching_arg =
  Arg.(value & flag
       & info [ "no-batching" ]
           ~doc:"Disable request batching: prefetch targets and eviction \
                 writebacks go out one object at a time, each paying the \
                 full protocol cost (cards system).")

(* ---------- fault-injection flags ---------- *)

let fault_rate_arg =
  Arg.(value & opt float 0.0
       & info [ "fault-rate" ] ~docv:"P"
           ~doc:"Per-transfer fault probability in [0,1] (cards system). \
                 The runtime retries with exponential backoff, escalates \
                 to a reliable channel when retries run out, and narrows \
                 prefetching while the observed rate stays high.  Faults \
                 perturb timing only: program output is unchanged.")

let fault_seed_arg =
  Arg.(value & opt int 1
       & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed for the deterministic fault schedule: same seed, \
                 same faults, same cycle count.")

let retry_max_arg =
  Arg.(value & opt int R.Runtime.default_config.retry_max
       & info [ "retry-max" ] ~docv:"N"
           ~doc:"Demand-fetch retries before escalating to the reliable \
                 channel.")

let fault_kinds_conv =
  let parse s =
    let kind_of = function
      | "transient" -> Ok Cards_net.Fabric.Transient
      | "late" -> Ok Cards_net.Fabric.Late
      | "duplicate" -> Ok Cards_net.Fabric.Duplicate
      | other ->
        Error (`Msg (other ^ ": unknown fault kind (transient|late|duplicate)"))
    in
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc part ->
           match (acc, kind_of (String.trim part)) with
           | (Error _ as e), _ -> e
           | _, (Error _ as e) -> e
           | Ok ks, Ok k -> Ok (ks @ [ k ]))
         (Ok [])
  in
  let print fmt ks =
    Format.fprintf fmt "%s"
      (String.concat "," (List.map Cards_net.Fabric.fault_kind_name ks))
  in
  Arg.conv (parse, print)

let fault_kinds_arg =
  Arg.(value
       & opt fault_kinds_conv Cards_net.Fabric.no_faults.Cards_net.Fabric.fault_kinds
       & info [ "fault-kinds" ] ~docv:"KINDS"
           ~doc:"Comma-separated fault kinds to inject: $(b,transient) \
                 (NACKed transfer), $(b,late) (congested completion), \
                 $(b,duplicate) (duplicated completion).  Default: all \
                 three.")

(* ---------- observability flags ---------- *)

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Sample per-structure metrics every \
                 $(b,--metrics-interval) cycles and print the \
                 time-series table.")

let metrics_interval_arg =
  Arg.(value & opt int O.Metrics.default_interval
       & info [ "metrics-interval" ] ~docv:"CYCLES"
           ~doc:"Sampling period for $(b,--metrics).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print the cycle-attribution profile (guard / demand \
                 stall / queueing / prefetch stall / trap / alloc per \
                 structure, buckets summing to total cycles), the stall \
                 root-cause tables (per structure and per access site, \
                 causes summing to total stall), and the fetch-latency \
                 histogram with p50/p90/p99/p999 percentiles.")

let spans_arg =
  Arg.(value & opt (some string) None
       & info [ "spans" ] ~docv:"FILE"
           ~doc:"Record causal spans (one per fabric transfer, with \
                 parent edges: prefetch to the access it satisfied, \
                 retry to its demand fetch, batch to its members, trap \
                 to the fetch it forced), a call span for each \
                 interpreted call that contains one, and the runtime's \
                 policy changes; write them to $(docv) — JSON-lines if \
                 the name ends in $(b,.jsonl), folded stacks if it ends \
                 in $(b,.folded), otherwise a Chrome trace_event file \
                 with flow arrows along every edge and the calls on the \
                 interpreter row.  Also prints the critical-path table \
                 (the heaviest causal chain).")

let span_rate_arg =
  Arg.(value & opt float 1.0
       & info [ "span-rate" ] ~docv:"RATE"
           ~doc:"Span sampling rate in [0,1] (deterministic, not \
                 random): 1.0 records every fetch; 0.1 records one \
                 occasion in ten.  At 1.0 the recorded spans' phase \
                 cycles reconcile exactly with the stall-attribution \
                 ledger.")

let postmortem_arg =
  Arg.(value & flag
       & info [ "postmortem" ]
           ~doc:"Keep a bounded flight recorder of recent spans \
                 (retried/escalated/trapped chains retained in full) \
                 and dump a human-readable post-mortem to stderr if \
                 the program traps or a fetch escalates to the \
                 reliable channel.  Implies span recording.")

let whatif_arg =
  Arg.(value & flag
       & info [ "whatif" ]
           ~doc:"Causal what-if profile: record causal spans, replay \
                 them under a catalog of virtual optimizations (protocol \
                 cost halved, serialization free, infinite queue pairs, \
                 perfect prefetch, fault-free fabric, per-structure \
                 variants) and print the scenarios ranked by predicted \
                 cycles saved — the \"what should we optimize next?\" \
                 report.  Implies span recording at rate 1.0.")

let whatif_validate_arg =
  Arg.(value & flag
       & info [ "whatif-validate" ]
           ~doc:"Validate the $(b,--whatif) predictions: re-execute the \
                 program once per scenario with the corresponding runtime \
                 knob actually changed (deterministically, program output \
                 bit-identical) and add measured cycles and relative \
                 error columns to the report.  Implies $(b,--whatif); \
                 cards system only.")

let metrics_csv_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-csv" ] ~docv:"FILE"
           ~doc:"Write the per-structure metric samples as CSV (header \
                 plus one row per sample).  Implies metric sampling at \
                 $(b,--metrics-interval) without the printed table.")

(* All the CLI's human-readable summaries flow through one reporter —
   the same one the sink carries, so library-side reports (the fault
   post-mortem) and driver-side summaries cannot interleave with
   machine-readable stdout or with each other mid-line. *)
let reporter = O.Reporter.stderr_reporter

let make_sink ~metrics ~metrics_interval ~spans ~span_rate ~postmortem ~whatif =
  if (not metrics) && spans = None && (not postmortem) && not whatif then None
  else
    Some
      (O.Sink.create
         ?metrics_interval:(if metrics then Some metrics_interval else None)
         ?span_rate:
           (if spans <> None || postmortem || whatif then Some span_rate
            else None)
         ~postmortem ~reporter ())

let export_obs rt obs ~metrics ~metrics_csv ~spans =
  let names = R.Runtime.ds_name rt in
  Option.iter
    (fun sink ->
      (match O.Sink.spans sink with
       | Some c ->
         (match O.Critical_path.analyze c with
          | Some r -> T.print (O.Export.critical_path_table ~names r)
          | None -> ());
         Option.iter
           (fun path ->
             let contents =
               if Filename.check_suffix path ".jsonl" then
                 O.Export.spans_jsonl c
               else if Filename.check_suffix path ".folded" then
                 O.Export.spans_folded ~names c
               else O.Export.spans_chrome_trace_string ~names c
             in
             O.Export.write_file path contents;
             O.Reporter.linef reporter "-- spans: %d to %s" (O.Span.length c)
               path)
           spans
       | None -> ());
      (match O.Sink.metrics sink with
       | Some m ->
         if metrics then T.print (O.Export.metrics_table m);
         Option.iter
           (fun path ->
             O.Export.write_file path (O.Export.metrics_csv m);
             O.Reporter.linef reporter "-- metrics: %d samples to %s"
               (O.Metrics.n_samples m) path)
           metrics_csv
       | None -> ()))
    obs

let print_profile rt =
  let names = R.Runtime.ds_name rt in
  let prof = R.Runtime.profile rt in
  let attr = R.Runtime.attribution rt in
  T.print (O.Export.profile_table ~names prof attr);
  T.print (O.Export.attribution_table ~names attr);
  T.print (O.Export.attribution_sites_table ~names attr);
  T.print (O.Export.latency_table prof);
  T.print (O.Export.latency_percentiles_table ~names prof);
  let per_ds =
    List.map
      (fun (r : R.Runtime.ds_report) ->
        (r.r_name, r.r_stats.R.Rt_stats.fetched_bytes))
      (R.Runtime.report rt)
  in
  T.print
    (O.Export.fabric_table
       ~over_budget:(R.Rt_stats.over_budget (R.Runtime.stats rt))
       ~per_ds
       (R.Runtime.fabric_stats rt))

let print_report rt =
  let t =
    T.create ~title:"Per-structure report"
      ~header:[ "structure"; "pinned"; "bytes"; "fetched"; "guards"; "hits";
                "faults"; "clean faults"; "pf issued"; "pf used";
                "evictions" ]
  in
  List.iter
    (fun (r : R.Runtime.ds_report) ->
      T.add_row t
        [ r.r_name; (if r.r_pinned then "yes" else "no");
          T.fmt_bytes (float_of_int r.r_bytes);
          T.fmt_bytes (float_of_int r.r_stats.fetched_bytes);
          string_of_int r.r_stats.guards;
          string_of_int r.r_stats.guard_hits;
          string_of_int r.r_stats.remote_faults;
          string_of_int r.r_stats.clean_faults;
          string_of_int r.r_stats.prefetch_issued;
          string_of_int r.r_stats.prefetch_used;
          string_of_int r.r_stats.evictions ])
    (R.Runtime.report rt);
  T.print t

(* A flag as the user spells it: [-k], [--fault-rate]. *)
let dashed flag = (if String.length flag = 1 then "-" else "--") ^ flag

(* Probability-valued flags are validated up front: a typo'd
   [--fault-rate 1.5] must die with a usage error, not silently clamp
   or corrupt the deterministic fault schedule. *)
let check_unit_interval flag v =
  if Float.is_nan v || v < 0.0 || v > 1.0 then
    failwith
      (Printf.sprintf "%s %g: expected a probability in [0,1]" (dashed flag) v)

(* Integer flags with a floor: a bad value dies here with a named
   usage error, not deep inside a constructor as an uncaught
   Invalid_argument, and is never clamped without a word. *)
let check_min flag v ~min ~need =
  if v < min then
    failwith (Printf.sprintf "%s %d: need %s" (dashed flag) v need)

(* The same for a float floor; NaN and infinities are rejected too. *)
let check_min_float flag v ~min ~need =
  if not (Float.is_finite v && v >= min) then
    failwith (Printf.sprintf "%s %g: need %s" (dashed flag) v need)

(* Domain counts are validated the same way: a bad value dies with a
   usage error, while merely-ambitious ones (more domains than the host
   has cores) warn and proceed — the result is bit-identical either
   way, only the wall-clock gain saturates. *)
let check_domains domains =
  check_min "domains" domains ~min:1 ~need:"at least one";
  let cores = Domain.recommended_domain_count () in
  if domains > cores then
    O.Reporter.linef reporter
      "-- warning: --domains %d exceeds the %d core(s) this host reports; \
       results are unchanged but wall-clock gains stop at the core count"
      domains cores

let run_cmd =
  let run file system engine policy k local remotable prefetch prefetch_bytes
      report qp no_batching fault_rate fault_seed retry_max fault_kinds
      metrics metrics_interval metrics_csv profile spans span_rate postmortem
      whatif whatif_validate factorize domains =
    with_errors (fun () ->
        check_unit_interval "fault-rate" fault_rate;
        check_unit_interval "span-rate" span_rate;
        check_unit_interval "k" k;
        check_domains domains;
        check_min "local" local ~min:0 ~need:"a non-negative size";
        check_min "remotable" remotable ~min:0 ~need:"a non-negative size";
        check_min "qp" qp ~min:1 ~need:"at least one queue pair";
        check_min "retry-max" retry_max ~min:0
          ~need:"a non-negative retry count";
        check_min "metrics-interval" metrics_interval ~min:1
          ~need:"a positive sampling period";
        Option.iter
          (fun b ->
            check_min "prefetch-bytes" b ~min:1 ~need:"a positive budget")
          prefetch_bytes;
        let whatif = whatif || whatif_validate in
        (* A sampling rate without a span consumer is almost always a
           forgotten --spans; warn rather than fail so scripted sweeps
           that toggle --spans independently keep working. *)
        if span_rate <> 1.0 && spans = None && (not postmortem) && not whatif
        then
          O.Reporter.linef reporter
            "-- warning: --span-rate %g has no effect without --spans or \
             --postmortem" span_rate;
        (* The what-if replay's exactness contract (identity predicts the
           measured run to the cycle) needs every occasion recorded. *)
        let span_rate =
          if whatif && span_rate <> 1.0 then begin
            O.Reporter.linef reporter
              "-- warning: --whatif forces --span-rate 1.0 (was %g)"
              span_rate;
            1.0
          end
          else span_rate
        in
        let src = read_source file in
        let obs =
          make_sink ~metrics:(metrics || metrics_csv <> None) ~metrics_interval
            ~spans ~span_rate ~postmortem ~whatif
        in
        let options = { P.cards_options with factorize } in
        let res, rt, whatif_rerun =
          match system with
          | `Cards ->
            let compiled = P.compile_source ~options src in
            let cfg =
              { R.Runtime.default_config with
                policy; k; local_bytes = local; remotable_bytes = remotable;
                prefetch_mode = prefetch; prefetch_bytes;
                fabric_config =
                  { R.Runtime.default_config.fabric_config with
                    Cards_net.Fabric.qp_count = qp;
                    faults =
                      { Cards_net.Fabric.fault_rate; fault_seed;
                        fault_kinds } };
                batching = not no_batching;
                retry_max }
            in
            let res, rt = P.run ~engine ?obs compiled cfg in
            (* Validation re-runs carry no sink: the baseline run owns
               the one-shot post-mortem latch and all reporter output, so
               a re-executed scenario can never interleave with (or
               re-fire) the baseline's reports mid-table. *)
            let rerun exec =
              match R.Runtime.whatif_config cfg exec with
              | None -> None
              | Some cfg' ->
                let res', _ = P.run ~engine compiled cfg' in
                if res'.Cards_interp.Machine.output <> res.output then
                  failwith
                    "what-if validation: perturbed run diverged in output";
                Some res'.Cards_interp.Machine.cycles
            in
            (res, rt, Some rerun)
          | `Trackfm ->
            let compiled = B.Trackfm.compile_source src in
            let res, rt = B.Trackfm.run ~engine ?obs compiled ~local_bytes:local in
            (res, rt, None)
          | `Mira ->
            let compiled = P.compile_source ~options src in
            let res, rt =
              B.Mira.run ~engine ?obs compiled ~local_bytes:local
                ~remotable_bytes:remotable
            in
            (res, rt, None)
          | `Plain ->
            let compiled = P.compile_source ~options src in
            let res, rt = B.Noguard.run ~engine ?obs compiled in
            (res, rt, None)
        in
        List.iter print_endline res.output;
        let tot = R.Rt_stats.total (R.Runtime.stats rt) in
        let fs = R.Runtime.fabric_stats rt in
        O.Reporter.linef reporter
          "-- %s cycles, %d instructions, %d guards (%d hits), %d remote \
           faults, %s over the fabric"
          (T.fmt_cycles (float_of_int res.cycles))
          res.instructions tot.guards tot.guard_hits tot.remote_faults
          (T.fmt_bytes (float_of_int fs.fetched_bytes));
        if fault_rate > 0.0 then begin
          let st = R.Runtime.stats rt in
          O.Reporter.linef reporter
            "-- faults: %d injected (%d transient, %d late, %d duplicate), \
             %d retries, %d timeouts, %d escalations, degrade level %d"
            (Cards_net.Fabric.faults_injected fs)
            fs.faults_transient fs.faults_late fs.faults_dup
            (R.Rt_stats.retries st) (R.Rt_stats.timeouts st)
            (R.Rt_stats.escalations st) (R.Runtime.degrade_level rt)
        end;
        (* Under --profile the resilience table renders even with fault
           injection off — an all-quiet table diffs cleanly against a
           faulty run's, where a missing table would not.  Like the
           fault summary above and the what-if report below it goes
           through the reporter (one Sink-gated stderr path), so none
           of the three can interleave with the other mid-table. *)
        if profile then begin
          let st = R.Runtime.stats rt in
          O.Reporter.text reporter
            (T.render
               (O.Export.resilience_table
                  ~retries:(R.Rt_stats.retries st)
                  ~timeouts:(R.Rt_stats.timeouts st)
                  ~escalations:(R.Rt_stats.escalations st)
                  ~pf_failed:(R.Rt_stats.pf_failed st)
                  ~pf_suppressed:(R.Rt_stats.pf_suppressed st)
                  ~degrade_steps:(R.Rt_stats.degrade_steps st)
                  ~recover_steps:(R.Rt_stats.recover_steps st)
                  ~degrade_level:(R.Runtime.degrade_level rt) ()))
        end;
        if report then print_report rt;
        if profile then print_profile rt;
        export_obs rt obs ~metrics ~metrics_csv ~spans;
        if whatif then begin
          match Option.bind obs O.Sink.spans with
          | None -> ()
          | Some col ->
            let names = R.Runtime.ds_name rt in
            let scenarios = O.Whatif.catalog ~names col in
            let ranked = O.Whatif.rank ~total:res.cycles col scenarios in
            (if whatif_validate && whatif_rerun = None then
               O.Reporter.line reporter
                 "-- warning: --whatif-validate needs --system cards; \
                  printing predictions only");
            (* Each validation re-run is an independent, sinkless
               re-execution, so under --domains N the scenarios fan out
               over a pool of N domains.  Results come back in scenario
               order — the table order (and, scenarios being
               deterministic, every measured number) is identical to
               the sequential path. *)
            let measured_for ranked =
              match whatif_rerun with
              | Some f when whatif_validate ->
                Array.to_list
                  (Cards_util.Pool.map ~domains
                     (fun (p : O.Whatif.prediction) ->
                       f p.p_scenario.O.Whatif.sc_exec)
                     (Array.of_list ranked))
              | _ -> List.map (fun _ -> None) ranked
            in
            let rows = List.combine ranked (measured_for ranked) in
            O.Reporter.text reporter (T.render (O.Export.whatif_table rows))
        end)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a MiniC file on far memory")
    Term.(const run $ file_arg $ system_arg $ engine_arg $ policy_arg
          $ k_arg $ local_arg
          $ remot_arg $ prefetch_arg $ prefetch_bytes_arg $ report_arg
          $ qp_arg $ no_batching_arg
          $ fault_rate_arg $ fault_seed_arg $ retry_max_arg $ fault_kinds_arg
          $ metrics_arg $ metrics_interval_arg $ metrics_csv_arg $ profile_arg
          $ spans_arg $ span_rate_arg $ postmortem_arg $ whatif_arg
          $ whatif_validate_arg $ factorize_arg $ domains_arg)

(* ---------- cards serve ---------- *)

let serve_cmd =
  let module S = Cards_serve.Serve in
  let module Stats = Cards_util.Stats in
  let tenants_arg =
    Arg.(value & opt int 4
         & info [ "tenants" ] ~docv:"N" ~doc:"Tenants in the Zipf mix.")
  in
  let requests_arg =
    Arg.(value & opt int 120
         & info [ "requests" ] ~docv:"N"
             ~doc:"Requests per kv tenant (analytics tenants offer \
                   proportionally fewer, heavier queries).")
  in
  let seed_arg =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Mix seed: tenant arrival streams, request contents \
                   and fault schedules all derive from it.")
  in
  let quantum_arg =
    Arg.(value & opt int S.default_config.S.quantum
         & info [ "quantum" ] ~docv:"CYCLES"
             ~doc:"Deficit-round-robin replenishment per round.")
  in
  let gap_arg =
    Arg.(value & opt float 40_000.0
         & info [ "gap" ] ~docv:"CYCLES"
             ~doc:"Mean inter-arrival gap of tenant 0; tenant i offers \
                   load proportional to 1/(i+1).")
  in
  let pin_budget_arg =
    Arg.(value & opt bytes_conv S.default_config.S.pin_budget
         & info [ "pin-budget" ] ~docv:"BYTES"
             ~doc:"Shared pinned-memory budget split across tenants by \
                   admission control (e.g. 256K).")
  in
  let faulty_arg =
    Arg.(value & opt (some int) None
         & info [ "faulty" ] ~docv:"TENANT"
             ~doc:"Give this tenant a faulty fabric slice at \
                   $(b,--fault-rate).")
  in
  let serve_fault_rate_arg =
    Arg.(value & opt float 0.2
         & info [ "fault-rate" ] ~docv:"P"
             ~doc:"Per-transfer fault probability for the $(b,--faulty) \
                   tenant's fabric slice.")
  in
  let run tenants requests seed quantum gap pin_budget faulty fault_rate
      engine domains =
    with_errors (fun () ->
        check_unit_interval "fault-rate" fault_rate;
        if tenants <= 0 then failwith "--tenants: need at least one";
        check_domains domains;
        check_min "quantum" quantum ~min:1 ~need:"a positive quantum";
        check_min "requests" requests ~min:1 ~need:"at least one request";
        check_min_float "gap" gap ~min:0.0
          ~need:"a finite, non-negative gap";
        check_min "pin-budget" pin_budget ~min:0 ~need:"a non-negative budget";
        Option.iter
          (fun i ->
            if i < 0 || i >= tenants then
              failwith
                (Printf.sprintf "--faulty %d: no such tenant (mix has %d)"
                   i tenants))
          faulty;
        let cfg = { S.default_config with S.quantum; pin_budget; engine } in
        let faulty = Option.map (fun i -> (i, fault_rate)) faulty in
        let specs =
          S.zipf_mix ?faulty ~n:tenants ~seed ~requests ~base_gap:gap ()
        in
        let r =
          if domains > 1 then
            Cards_par.Engine.run ~domains:(domains - 1) cfg specs
          else S.run cfg specs
        in
        let t =
          T.create ~title:"Tenants"
            ~header:
              [ "tenant"; "served"; "pinned"; "setup"; "service"; "stall";
                "wait"; "degrade"; "deficit" ]
        in
        Array.iter
          (fun (tr : S.tenant_result) ->
            T.add_row t
              [ tr.S.tr_name;
                string_of_int tr.S.tr_served;
                T.fmt_bytes (float_of_int tr.S.tr_pinned_granted);
                T.fmt_cycles (float_of_int tr.S.tr_setup_cycles);
                T.fmt_cycles (float_of_int tr.S.tr_service_cycles);
                T.fmt_cycles (float_of_int tr.S.tr_stall_cycles);
                T.fmt_cycles (float_of_int tr.S.tr_wait_cycles);
                string_of_int tr.S.tr_degrade_level;
                string_of_int tr.S.tr_deficit_end ])
          r.S.tenants;
        T.print t;
        T.print
          (O.Export.serve_latency_table
             (Array.to_list r.S.tenants
              |> List.map (fun (tr : S.tenant_result) ->
                     (tr.S.tr_name, tr.S.tr_latency, tr.S.tr_served))));
        (* The interference matrix: who waited behind whom. *)
        let steal =
          T.create ~title:"Interference (cycles victim spent queued behind culprit)"
            ~header:
              ("victim \\ culprit"
               :: (Array.to_list r.S.tenants
                   |> List.map (fun (tr : S.tenant_result) -> tr.S.tr_name)))
        in
        Array.iteri
          (fun v row ->
            T.add_row steal
              (r.S.tenants.(v).S.tr_name
               :: (Array.to_list row
                   |> List.map (fun c -> T.fmt_cycles (float_of_int c)))))
          r.S.stolen;
        T.print steal;
        O.Reporter.linef reporter
          "-- %s cycles total (%s busy, %s idle), %d DRR rounds; \
           credit: %d granted - %d charged - %d forfeited; \
           pinned %s of %s admitted"
          (T.fmt_cycles (float_of_int r.S.total_cycles))
          (T.fmt_cycles (float_of_int r.S.busy_cycles))
          (T.fmt_cycles (float_of_int r.S.idle_cycles))
          r.S.rounds r.S.granted r.S.charged r.S.forfeited
          (T.fmt_bytes (float_of_int r.S.pin_admitted))
          (T.fmt_bytes (float_of_int r.S.pin_budget));
        if domains > 1 then
          O.Reporter.linef reporter
            "-- served on up to %d domains under deterministic virtual \
             time (bit-identical to --domains 1)"
            (min domains tenants))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a seeded Zipf mix of kv and analytics tenants under \
             deficit-round-robin fairness")
    Term.(const run $ tenants_arg $ requests_arg $ seed_arg $ quantum_arg
          $ gap_arg $ pin_budget_arg $ faulty_arg $ serve_fault_rate_arg
          $ engine_arg $ domains_arg)

(* ---------- cards workload ---------- *)

let workload_cmd =
  let names =
    [ "listing1"; "analytics"; "ftfdapml"; "bfs"; "pc-array"; "pc-vector";
      "pc-list"; "pc-map"; "pc-hash"; "pc-tree" ]
  in
  let name_arg =
    Arg.(required & pos 0 (some (enum (List.map (fun n -> (n, n)) names))) None
         & info [] ~docv:"NAME")
  in
  let scale_arg =
    Arg.(value & opt int 10_000
         & info [ "scale" ] ~docv:"N" ~doc:"Workload size parameter.")
  in
  let run name scale =
    with_errors @@ fun () ->
    check_min "scale" scale ~min:1 ~need:"a positive size";
    let src =
      match name with
      | "listing1" -> W.Listing1.source ~elems:scale ~ntimes:10
      | "analytics" -> W.Analytics.source ~trips:scale ~query_passes:2
      | "ftfdapml" ->
        let d = max 4 (int_of_float (Float.cbrt (float_of_int scale))) in
        W.Ftfdapml.source ~cz:d ~cym:(3 * d) ~cxm:(3 * d) ~steps:4
      | "bfs" -> W.Bfs.source ~nodes:scale ~edges:(5 * scale) ~sources:2
      | other ->
        let variant = String.sub other 3 (String.length other - 3) in
        W.Pointer_chase.source ~variant ~scale ~passes:2
    in
    print_string src
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Emit a bundled benchmark's MiniC source to stdout")
    Term.(const run $ name_arg $ scale_arg)

(* ---------- entry ---------- *)

let () =
  let doc = "CaRDS: compiler-aided remote data structures" in
  let info = Cmd.info "cards" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ compile_cmd; run_cmd; serve_cmd; workload_cmd ]))
