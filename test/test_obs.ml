(* Tests for the observability layer: the accounting identity
   (compute + stall ledger = cycles), epoch metrics, the causal span
   collector and its exporters, and — critically — that observability
   never perturbs simulated time. *)

module O = Cards_obs
module R = Cards_runtime
module P = Cards.Pipeline
module W = Cards_workloads
module J = Cards_util.Json

let check = Alcotest.check

(* A pointer-chase under memory pressure: remote faults, queueing,
   prefetches and evictions all occur, so every bucket and fabric span
   kind is exercised. *)
let chase =
  lazy
    (P.compile_source
       (W.Pointer_chase.source ~variant:"list" ~scale:2048 ~passes:2))

let pressure_cfg =
  { R.Runtime.default_config with
    policy = R.Policy.All_remotable;
    k = 0.0;
    local_bytes = 256 * 1024;
    remotable_bytes = 64 * 1024 }

let full_sink () = O.Sink.create ~span_rate:1.0 ~metrics_interval:100_000 ()

let spans_of obs =
  match O.Sink.spans obs with Some c -> c | None -> assert false

let of_kind name col =
  List.filter
    (fun (s : O.Span.t) -> O.Span.kind_name s.sp_kind = name)
    (O.Span.spans col)

(* ---------- cycle attribution ---------- *)

(* Σ of the ledger's fabric-wait causes: what the profile table shows
   as demand stall plus queueing. *)
let demand_and_queue attr =
  List.fold_left
    (fun acc (c, v) ->
      match c with
      | O.Attribution.Proto | O.Attribution.Wire | O.Attribution.Queue _ ->
        acc + v
      | _ -> acc)
    0 (O.Attribution.cause_totals attr)

let test_attribution_sums_to_total () =
  let res, rt = P.run (Lazy.force chase) pressure_cfg in
  let prof = R.Runtime.profile rt in
  let attr = R.Runtime.attribution rt in
  check Alcotest.int "compute + ledger total = total cycles" res.cycles
    (O.Profile.compute prof + O.Attribution.total attr);
  (* The identity must not be vacuous: the run really faulted and the
     fault cycles really landed as demand stall and queueing. *)
  let tot = R.Rt_stats.total (R.Runtime.stats rt) in
  check Alcotest.bool "remote faults occurred" true (tot.remote_faults > 0);
  check Alcotest.bool "demand/queue causes non-empty" true
    (demand_and_queue attr > 0);
  check Alcotest.bool "compute non-empty" true (O.Profile.compute prof > 0);
  (* Fetch latencies were recorded for the faults. *)
  let hist_total = Array.fold_left ( + ) 0 (O.Profile.merged_hist prof) in
  check Alcotest.bool "latency histogram populated" true (hist_total > 0)

let test_attribution_all_pinned_is_pure_compute_and_alloc () =
  (* Everything pinned: no guards survive versioning's clean loops, no
     faults — the identity still balances, via compute + alloc alone. *)
  let res, rt = P.run (Lazy.force chase) R.Runtime.default_config in
  let attr = R.Runtime.attribution rt in
  check Alcotest.int "compute + ledger total = total cycles" res.cycles
    (O.Profile.compute (R.Runtime.profile rt) + O.Attribution.total attr);
  check Alcotest.int "no demand stall or queueing when pinned" 0
    (demand_and_queue attr)

(* ---------- stall root-cause attribution ---------- *)

let test_stall_attribution_exact () =
  let res, rt = P.run (Lazy.force chase) pressure_cfg in
  let prof = R.Runtime.profile rt in
  let attr = R.Runtime.attribution rt in
  (* The ledger's exactness invariant: every non-compute cycle lands
     in exactly one (ds, site, cause) cell. *)
  check Alcotest.int "Σ causes = total stall cycles"
    (res.cycles - O.Profile.compute prof)
    (O.Attribution.total attr);
  (* cause_totals is a consistent decomposition of the same number. *)
  let by_cause =
    List.fold_left (fun acc (_, v) -> acc + v) 0 (O.Attribution.cause_totals attr)
  in
  check Alcotest.int "cause totals sum to total" (O.Attribution.total attr)
    by_cause;
  (* ... and so is the per-structure view. *)
  let by_ds =
    List.fold_left
      (fun acc ds ->
        List.fold_left
          (fun acc (_, v) -> acc + v)
          acc
          (O.Attribution.ds_cause_totals attr ds))
      0 (O.Attribution.ds_list attr)
  in
  check Alcotest.int "ds totals sum to total" (O.Attribution.total attr) by_ds;
  (* The run faulted under pressure: protocol, wire and queue causes
     must all be non-vacuous, and queueing is split per QP. *)
  let cause_val c = List.assoc c (O.Attribution.cause_totals attr) in
  check Alcotest.bool "protocol cycles charged" true (cause_val O.Attribution.Proto > 0);
  check Alcotest.bool "wire cycles charged" true (cause_val O.Attribution.Wire > 0);
  let queue_total =
    List.fold_left
      (fun acc (c, v) ->
        match c with O.Attribution.Queue _ -> acc + v | _ -> acc)
      0 (O.Attribution.cause_totals attr)
  in
  check Alcotest.bool "queue causes present" true
    (List.exists
       (function O.Attribution.Queue _ -> true | _ -> false)
       (O.Attribution.causes attr));
  ignore queue_total

let test_stall_attribution_sites_named () =
  let _, rt = P.run (Lazy.force chase) pressure_cfg in
  let attr = R.Runtime.attribution rt in
  let rows = O.Attribution.site_rows attr in
  check Alcotest.bool "site rows non-empty" true (rows <> []);
  (* The interpreter threads real access sites: at least one heavy row
     names a function and basic block, not "(runtime)". *)
  let named =
    List.exists
      (fun (r : O.Attribution.site_row) ->
        r.O.Attribution.r_site.O.Attribution.s_block >= 0
        && r.O.Attribution.r_site.O.Attribution.s_fn <> "(runtime)")
      rows
  in
  check Alcotest.bool "an interpreted site is named" true named;
  (* Rows are sorted heaviest first and their causes are non-zero. *)
  let rec sorted = function
    | (a : O.Attribution.site_row) :: (b :: _ as rest) ->
      a.O.Attribution.r_total >= b.O.Attribution.r_total && sorted rest
    | _ -> true
  in
  check Alcotest.bool "heaviest first" true (sorted rows);
  List.iter
    (fun (r : O.Attribution.site_row) ->
      check Alcotest.int "row causes sum to row total" r.O.Attribution.r_total
        (List.fold_left (fun acc (_, v) -> acc + v) 0 r.O.Attribution.r_causes))
    rows;
  (* Direct runtime API use (no interpreter) attributes to the unknown
     site rather than losing cycles. *)
  check Alcotest.string "unknown site label" "(runtime)"
    (O.Attribution.site_name O.Attribution.unknown_site)

let test_attribution_qp_matrix () =
  (* The exactness invariant across queue-pair count and batching —
     queue splits and batch completions must not leak cycles. *)
  List.iter
    (fun qp ->
      List.iter
        (fun batching ->
          let cfg =
            { pressure_cfg with
              R.Runtime.fabric_config =
                { pressure_cfg.R.Runtime.fabric_config with
                  Cards_net.Fabric.qp_count = qp };
              batching }
          in
          let res, rt = P.run (Lazy.force chase) cfg in
          let prof = R.Runtime.profile rt in
          let attr = R.Runtime.attribution rt in
          check Alcotest.int
            (Printf.sprintf "qp=%d batching=%b exact" qp batching)
            (res.cycles - O.Profile.compute prof)
            (O.Attribution.total attr);
          (* No Queue cause may name a QP the fabric does not have. *)
          List.iter
            (function
              | O.Attribution.Queue i ->
                check Alcotest.bool "queue index within qp_count" true
                  (i >= 0 && i < qp)
              | _ -> ())
            (O.Attribution.causes attr))
        [ true; false ])
    [ 1; 2; 4 ]

(* ---------- observability does not perturb the simulation ---------- *)

let test_sink_off_bit_identical () =
  let bare, _ = P.run (Lazy.force chase) pressure_cfg in
  let obs = full_sink () in
  let traced, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  check Alcotest.int "cycles identical with full sink" bare.cycles
    traced.cycles;
  check Alcotest.int "instructions identical" bare.instructions
    traced.instructions;
  check (Alcotest.list Alcotest.string) "output identical" bare.output
    traced.output;
  (* And the sink actually observed the run: spans and metrics. *)
  check Alcotest.bool "spans captured" true (O.Span.length (spans_of obs) > 0);
  (match O.Sink.metrics obs with
   | Some m ->
     check Alcotest.bool "samples taken" true (O.Metrics.n_samples m > 0)
   | None -> Alcotest.fail "sink lost its metrics");
  ignore rt

(* ---------- exporters ---------- *)

let chrome_events s =
  match Option.bind (J.member "traceEvents" (J.parse s)) J.to_list_opt with
  | Some l -> l
  | None -> []

let test_chrome_trace_roundtrips () =
  let obs = full_sink () in
  let _, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  let events =
    chrome_events
      (O.Export.spans_chrome_trace_string ~names:(R.Runtime.ds_name rt)
         (spans_of obs))
  in
  check Alcotest.bool "traceEvents non-empty" true (List.length events > 0);
  let num e k =
    match Option.bind (J.member k e) J.to_number_opt with
    | Some v -> v
    | None -> Alcotest.failf "event missing %s" k
  in
  (* Every entry is an object with the mandatory trace_event fields. *)
  List.iter
    (fun e ->
      (match J.member "ph" e with
       | Some (J.Str ph) ->
         check Alcotest.bool "known phase" true
           (List.mem ph [ "X"; "s"; "f"; "M" ])
       | _ -> Alcotest.fail "event missing ph");
      (match J.member "pid" e with
       | Some (J.Int _) -> ()
       | _ -> Alcotest.fail "event missing pid");
      (* Duration spans need a non-negative dur. *)
      if J.member "ph" e = Some (J.Str "X") then
        check Alcotest.bool "dur >= 0" true (num e "dur" >= 0.0))
    events;
  (* The call spans on the interpreter row form a stack: any two are
     nested or disjoint (up to the microsecond conversion's rounding). *)
  let calls =
    List.filter_map
      (fun e ->
        match (J.member "name" e, J.member "tid" e) with
        | Some (J.Str "call"), Some (J.Int 0) ->
          let ts = num e "ts" in
          Some (ts, ts +. num e "dur")
        | _ -> None)
      events
  in
  check Alcotest.bool "call spans present" true (calls <> []);
  let eps = 1e-6 in
  let nested_or_disjoint (a0, a1) (b0, b1) =
    a1 <= b0 +. eps || b1 <= a0 +. eps
    || (a0 <= b0 +. eps && b1 <= a1 +. eps)
    || (b0 <= a0 +. eps && a1 <= b1 +. eps)
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            check Alcotest.bool "calls nested or disjoint" true
              (nested_or_disjoint a b))
        calls)
    calls

let test_events_jsonl_parses () =
  let obs = full_sink () in
  let _ = P.run ~obs (Lazy.force chase) pressure_cfg in
  let col = spans_of obs in
  let lines =
    String.split_on_char '\n' (O.Export.spans_jsonl col)
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per span" (O.Span.length col)
    (List.length lines);
  List.iter
    (fun line ->
      let j = J.parse line in
      match (J.member "span" j, J.member "kind" j, J.member "issued" j) with
      | Some (J.Int _), Some (J.Str _), Some (J.Int _) -> ()
      | _ -> Alcotest.fail "span line missing fields")
    lines

(* The whitespace-separated cells of the rendered row whose first cell
   is [name]. *)
let row_cells rendered name =
  String.split_on_char '\n' rendered
  |> List.find_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | first :: _ as cells when first = name -> Some cells
         | _ -> None)

let test_profile_table_renders () =
  let res, rt = P.run (Lazy.force chase) pressure_cfg in
  let s =
    Cards_util.Table.render
      (O.Export.profile_table ~names:(R.Runtime.ds_name rt)
         (R.Runtime.profile rt) (R.Runtime.attribution rt))
  in
  check
    Alcotest.(option (list string))
    "TOTAL row is the run's cycle count"
    (Some
       [ "TOTAL"; Cards_util.Table.fmt_cycles (float_of_int res.cycles);
         "100.0%" ])
    (row_cells s "TOTAL")

(* The profile table is a view of the ledger: known charges across two
   sites and every cause land in their columns, rows are structures in
   handle order, and TOTAL is compute plus the ledger. *)
let test_profile_table_groups_ledger () =
  let attr = O.Attribution.create () in
  let charge ds ?(fn = "f") ?(block = 0) cause c =
    O.Attribution.charge attr ~ds ~fn ~block ~instr:1 cause c
  in
  charge 1 O.Attribution.Proto 60;
  charge 1 ~fn:"g" ~block:3 O.Attribution.Proto 40;
  charge 1 O.Attribution.Wire 20;
  charge 1 (O.Attribution.Queue 0) 30;
  charge 1 ~fn:"g" ~block:3 (O.Attribution.Queue 1) 5;
  charge 1 O.Attribution.Guard_exec 400;
  charge 1 O.Attribution.Bookkeeping 7;
  charge 2 O.Attribution.Guard_exec 50;
  charge 2 (O.Attribution.Queue 1) 9;
  charge 2 O.Attribution.Pf_wait 11;
  charge 2 O.Attribution.Retry 13;
  charge 2 O.Attribution.Trap 16;
  charge 2 ~fn:"g" O.Attribution.Bookkeeping 3;
  charge 0 O.Attribution.Bookkeeping 8;
  let prof = O.Profile.create () in
  prof.O.Profile.p_compute <- 1328;
  (O.Profile.buckets prof 1).O.Profile.p_hidden <- 900;
  let names = function 0 -> "U" | 1 -> "A" | _ -> "B" in
  let s =
    Cards_util.Table.render (O.Export.profile_table ~names prof attr)
  in
  let row = row_cells s in
  let cells = Alcotest.(option (list string)) in
  (* structure, guard, demand stall, queueing, pf stall, retry, trap,
     alloc, total, share, pf hidden *)
  check cells "unmanaged"
    (Some [ "U"; "0"; "0"; "0"; "0"; "0"; "0"; "8"; "8"; "0.4%"; "0" ])
    (row "U");
  check cells "A"
    (Some [ "A"; "400"; "120"; "35"; "0"; "0"; "0"; "7"; "562"; "28.1%"; "900" ])
    (row "A");
  check cells "B"
    (Some [ "B"; "50"; "0"; "9"; "11"; "13"; "16"; "3"; "102"; "5.1%"; "0" ])
    (row "B");
  check cells "compute" (Some [ "(compute)"; "1328"; "66.4%" ]) (row "(compute)");
  check cells "TOTAL" (Some [ "TOTAL"; "2000"; "100.0%" ]) (row "TOTAL");
  let rows = [ "U"; "A"; "B"; "(compute)"; "TOTAL" ] in
  let order =
    String.split_on_char '\n' s
    |> List.filter_map (fun l ->
           match String.index_opt l ' ' with
           | Some i -> Some (String.sub l 0 i)
           | None -> None)
    |> List.filter (fun c -> List.mem c rows)
  in
  check Alcotest.(list string) "rows in handle order" rows order

(* ---------- prefetch & batch spans ---------- *)

let test_prefetch_and_batch_events_roundtrip () =
  let obs = full_sink () in
  let _ = P.run ~obs (Lazy.force chase) pressure_cfg in
  let col = spans_of obs in
  let lines =
    String.split_on_char '\n' (O.Export.spans_jsonl col)
    |> List.filter (fun l -> l <> "")
    |> List.map J.parse
  in
  let int_field name j =
    match J.member name j with
    | Some (J.Int v) -> v
    | _ -> Alcotest.fail (Printf.sprintf "missing int field %S" name)
  in
  let of_json_kind k =
    List.filter (fun j -> J.member "kind" j = Some (J.Str k)) lines
  in
  (* A prefetch span sits on its *target* structure's row and object,
     also for a cross-structure prefetch; the access that set it off
     is its E_trigger parent, not its row. *)
  let issues = of_json_kind "prefetch" in
  check Alcotest.bool "prefetch spans present" true (issues <> []);
  List.iter
    (fun j ->
      check Alcotest.bool "target ds is a structure" true
        (int_field "ds" j >= 1);
      check Alcotest.bool "target obj valid" true (int_field "obj" j >= 0))
    issues;
  (* Each batch carries its payload bytes and is the E_member parent
     of at least two prefetch spans; under pressure at least one real
     (multi-object) batch goes out. *)
  let batches = of_json_kind "batch" in
  check Alcotest.bool "batch spans present" true (batches <> []);
  let members = Hashtbl.create 64 in
  List.iter
    (fun j ->
      if J.member "edge" j = Some (J.Str "member") then
        let p = int_field "parent" j in
        Hashtbl.replace members p
          (1 + Option.value ~default:0 (Hashtbl.find_opt members p)))
    issues;
  List.iter
    (fun j ->
      let id = int_field "span" j in
      check Alcotest.bool "members >= 2" true
        (Option.value ~default:0 (Hashtbl.find_opt members id) >= 2);
      check Alcotest.bool "bytes > 0" true (int_field "bytes" j > 0))
    batches

(* QP rows in the Chrome trace: fabric spans sit on their inbound
   queue pair's own, labelled thread row. *)
let test_chrome_trace_qp_rows () =
  let obs = full_sink () in
  let _, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  let events =
    chrome_events
      (O.Export.spans_chrome_trace_string ~names:(R.Runtime.ds_name rt)
         (spans_of obs))
  in
  let fabric =
    List.filter
      (fun e ->
        J.member "ph" e = Some (J.Str "X")
        && List.exists
             (fun k -> J.member "name" e = Some (J.Str k))
             [ "demand"; "prefetch"; "batch" ])
      events
  in
  check Alcotest.bool "fabric spans present" true (fabric <> []);
  List.iter
    (fun e ->
      match J.member "tid" e with
      | Some (J.Int tid) ->
        check Alcotest.bool "fabric span on a qp thread row" true
          (tid >= 100_000)
      | _ -> Alcotest.fail "fabric span missing tid")
    fabric;
  (* And those rows are labelled. *)
  let labelled =
    List.exists
      (fun e ->
        match (J.member "name" e, J.member "ph" e, J.member "args" e) with
        | (Some (J.Str "thread_name"), Some (J.Str "M"), Some args) -> (
          match J.member "name" args with
          | Some (J.Str n) ->
            String.length n >= 2 && String.sub n 0 2 = "qp"
          | _ -> false)
        | _ -> false)
      events
  in
  check Alcotest.bool "qp thread row named" true labelled

(* Exporters must behave on a run that recorded no spans and no
   latencies at all (e.g. a pure-compute program). *)
let test_exporters_on_zero_event_run () =
  let col = O.Span.create () in
  check Alcotest.int "only the process-name metadata record" 1
    (List.length (chrome_events (O.Export.spans_chrome_trace_string col)));
  check Alcotest.string "empty jsonl" "" (O.Export.spans_jsonl col);
  check Alcotest.string "empty folded" "" (O.Export.spans_folded col);
  check Alcotest.bool "no critical path" true
    (O.Critical_path.analyze col = None);
  let prof = O.Profile.create () in
  let names _ = "x" in
  ignore (Cards_util.Table.render (O.Export.latency_table prof));
  ignore (Cards_util.Table.render (O.Export.latency_percentiles_table ~names prof));
  let attr = O.Attribution.create () in
  check Alcotest.int "empty ledger total" 0 (O.Attribution.total attr);
  ignore (Cards_util.Table.render (O.Export.attribution_table ~names attr));
  ignore (Cards_util.Table.render (O.Export.attribution_sites_table ~names attr));
  ignore (Cards_util.Table.render (O.Export.profile_table ~names prof attr))

(* ---------- the bench regression gate ---------- *)

let snapshot cycles fetches =
  J.Obj
    [ ("experiments",
       J.List
         [ J.Obj
             [ ("tag", J.Str "pc-list-batched");
               ("cycles", J.Int cycles);
               ("fabric",
                J.Obj
                  [ ("fetches", J.Int fetches);
                    ("qp_queue_cycles", J.List [ J.Int 10; J.Int 20 ]) ]) ] ]) ]

let test_regress_clean_and_perturbed () =
  let base = snapshot 1_000_000 500 in
  (* Identical tree: zero violations even at zero tolerance. *)
  check Alcotest.int "unchanged snapshot passes" 0
    (List.length
       (O.Regress.compare_snapshots ~tolerance:0.0 ~baseline:base
          ~current:base ()));
  (* A 5% cycle regression breaks a 2% gate and names the metric. *)
  let worse = snapshot 1_050_000 500 in
  (match
     O.Regress.compare_snapshots ~tolerance:0.02 ~baseline:base ~current:worse ()
   with
   | [ v ] ->
     check Alcotest.string "experiment named" "pc-list-batched"
       v.O.Regress.v_experiment;
     check Alcotest.string "metric named" "cycles" v.O.Regress.v_metric;
     check (Alcotest.float 1e-9) "baseline value" 1_000_000.0
       v.O.Regress.v_baseline;
     (match v.O.Regress.v_observed with
      | Some obs -> check (Alcotest.float 1e-9) "observed value" 1_050_000.0 obs
      | None -> Alcotest.fail "observed missing");
     let msg = O.Regress.format_violation v in
     let has sub =
       let n = String.length msg and m = String.length sub in
       let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
       go 0
     in
     check Alcotest.bool "message names experiment" true (has "pc-list-batched");
     check Alcotest.bool "message names metric" true (has "cycles");
     check Alcotest.bool "message has baseline" true (has "1000000");
     check Alcotest.bool "message has observed" true (has "1050000")
   | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* The same 5% drift passes a 10% tolerance. *)
  check Alcotest.int "loose tolerance passes" 0
    (List.length
       (O.Regress.compare_snapshots ~tolerance:0.10 ~baseline:base
          ~current:worse ()));
  (* Fabric counters are gated too, including per-QP arrays. *)
  let fewer = snapshot 1_000_000 400 in
  (match
     O.Regress.compare_snapshots ~tolerance:0.02 ~baseline:base ~current:fewer ()
   with
   | [ v ] -> check Alcotest.string "fabric metric" "fabric.fetches" v.O.Regress.v_metric
   | vs -> Alcotest.failf "expected 1 fabric violation, got %d" (List.length vs));
  (* A vanished experiment is a violation, not a silent pass. *)
  let empty = J.Obj [ ("experiments", J.List []) ] in
  (match
     O.Regress.compare_snapshots ~tolerance:0.02 ~baseline:base ~current:empty ()
   with
   | [ v ] -> check Alcotest.bool "missing reported" true (v.O.Regress.v_observed = None)
   | vs -> Alcotest.failf "expected 1 missing violation, got %d" (List.length vs))

(* ---------- epoch metrics ---------- *)

let test_metrics_sampled () =
  let obs = O.Sink.create ~metrics_interval:50_000 () in
  let _, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  let m = match O.Sink.metrics obs with Some m -> m | None -> assert false in
  check Alcotest.bool "samples recorded" true (O.Metrics.n_samples m > 0);
  let samples = O.Metrics.samples m in
  (* Cycle stamps never decrease, and cumulative counters never
     decrease per structure. *)
  let last_cycle = ref 0 in
  let last_guards = Hashtbl.create 8 in
  List.iter
    (fun (s : O.Metrics.sample) ->
      check Alcotest.bool "cycles monotone" true (s.m_cycle >= !last_cycle);
      last_cycle := s.m_cycle;
      let prev =
        match Hashtbl.find_opt last_guards s.m_ds with Some g -> g | None -> 0
      in
      check Alcotest.bool "counters monotone" true (s.m_guards >= prev);
      Hashtbl.replace last_guards s.m_ds s.m_guards)
    samples;
  (* The number of live structures matches the report. *)
  let dss = List.length (R.Runtime.report rt) in
  let seen = Hashtbl.length last_guards in
  check Alcotest.int "every structure sampled" dss seen

(* ---------- json codec ---------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("a", J.Int 42); ("b", J.Str "x\"y\n\\z");
        ("c", J.List [ J.Null; J.Bool true; J.Float 1.5 ]);
        ("d", J.Obj [] ) ]
  in
  let s = J.to_string v in
  check Alcotest.bool "roundtrip equal" true (J.parse s = v)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.parse s with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted garbage: " ^ s))
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* ---------- causal spans, critical path, flight recorder ---------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* Hand-built spans: the collector only checks id discipline, so unit
   tests can assemble precise graphs without a runtime behind them. *)
let mk_span col ?(kind = O.Span.Demand) ?(parent = -1) ?edge ?(ds = 1)
    ?(queued = 0) ?(proto = 0) ?(wire = 0) ?(retry = 0) ?(pf_wait = 0)
    ?(trap = 0) ?(issued = 0) ?complete ?fault () =
  let id = O.Span.fresh col in
  let stall = queued + proto + wire + retry + pf_wait + trap in
  let s =
    { O.Span.sp_id = id; sp_kind = kind; sp_parent = parent; sp_edge = edge;
      sp_ds = ds; sp_obj = id; sp_fn = "t"; sp_block = 0; sp_instr = 0;
      sp_issued = issued; sp_start = issued;
      sp_complete = (match complete with Some c -> c | None -> issued + stall);
      sp_queued = queued; sp_proto = proto; sp_wire = wire; sp_retry = retry;
      sp_pf_wait = pf_wait; sp_trap = trap; sp_qp = 0; sp_bytes = 64;
      sp_fault = fault }
  in
  O.Span.add col s;
  s

let test_span_sampling_deterministic () =
  (* Rate 1.0: every occasion; rate 0.5: exactly every other one, via
     the accumulator — no RNG, so the pattern is the same every run. *)
  let all = O.Span.create ~rate:1.0 () in
  for _ = 1 to 10 do
    check Alcotest.bool "rate 1.0 always samples" true (O.Span.sampled all)
  done;
  let none = O.Span.create ~rate:0.0 () in
  for _ = 1 to 10 do
    check Alcotest.bool "rate 0.0 never samples" false (O.Span.sampled none)
  done;
  let half = O.Span.create ~rate:0.5 () in
  let picks = List.init 8 (fun _ -> O.Span.sampled half) in
  check Alcotest.int "rate 0.5 samples half" 4
    (List.length (List.filter Fun.id picks));
  check (Alcotest.list Alcotest.bool) "alternating pattern"
    [ false; true; false; true; false; true; false; true ] picks

let test_span_inflight_registry () =
  let col = O.Span.create () in
  O.Span.note_inflight col ~ds:3 ~obj:17 ~span:42;
  check Alcotest.int "take returns the span" 42
    (O.Span.take_inflight col ~ds:3 ~obj:17);
  check Alcotest.int "take consumes" (-1)
    (O.Span.take_inflight col ~ds:3 ~obj:17);
  check Alcotest.int "absent key" (-1) (O.Span.take_inflight col ~ds:9 ~obj:9)

let test_span_well_formed_rejects_forward_edge () =
  let col = O.Span.create () in
  let a = mk_span col ~proto:10 () in
  let _b =
    mk_span col ~kind:O.Span.Retry ~parent:a.O.Span.sp_id
      ~edge:O.Span.E_retry ~retry:5 ()
  in
  check Alcotest.bool "backward edge ok" true (O.Span.well_formed col);
  (* A parent id at or above the child's is a graph bug. *)
  let bad = O.Span.create () in
  let c = mk_span bad ~proto:1 () in
  O.Span.add bad
    { c with O.Span.sp_id = c.O.Span.sp_id; sp_parent = c.O.Span.sp_id };
  check Alcotest.bool "self edge rejected" false (O.Span.well_formed bad)

let test_critical_path_synthetic_chain () =
  let col = O.Span.create () in
  (* Chain A: demand (100 proto) <- settle (50 pf-wait) = 150.
     Chain B: lone demand, 120 queued.  A must win. *)
  let a = mk_span col ~kind:O.Span.Prefetch ~proto:100 () in
  let s =
    mk_span col ~kind:O.Span.Pf_settle ~parent:a.O.Span.sp_id
      ~edge:O.Span.E_satisfy ~pf_wait:50 ~issued:100 ()
  in
  let _b = mk_span col ~queued:120 () in
  (* A call mark closing after the fetches it contains changes
     nothing: marks are not analyzed. *)
  O.Span.call col ~since:0 ~fn:"main" ~issued:0 ~complete:10_000;
  match O.Critical_path.analyze col with
  | None -> Alcotest.fail "no report"
  | Some r ->
    check Alcotest.int "chain stall" 150 r.O.Critical_path.r_chain_stall;
    check (Alcotest.list Alcotest.int) "chain ids root-first"
      [ a.O.Span.sp_id; s.O.Span.sp_id ]
      (List.map (fun sp -> sp.O.Span.sp_id) r.O.Critical_path.r_chain);
    check Alcotest.int "proto share" 100
      r.O.Critical_path.r_phases.O.Critical_path.cp_proto;
    check Alcotest.int "pf-wait share" 50
      r.O.Critical_path.r_phases.O.Critical_path.cp_pf_wait;
    check Alcotest.int "span count" 3 r.O.Critical_path.r_span_count;
    check Alcotest.int "last completion" 150 r.O.Critical_path.r_end

let test_recorder_ring_bound () =
  let rec_ = O.Recorder.create ~capacity:8 () in
  let col = O.Span.create () in
  O.Span.set_listener col (O.Recorder.add rec_);
  ignore (mk_span col ~proto:1 ());
  O.Span.call col ~since:0 ~fn:"main" ~issued:0 ~complete:1;
  check Alcotest.int "marks skip the recorder" 1 (O.Recorder.ring_length rec_);
  for _ = 1 to 100 do
    ignore (mk_span col ~proto:1 ())
  done;
  check Alcotest.int "ring bounded" 8 (O.Recorder.ring_length rec_);
  check Alcotest.int "nothing flagged" 0 (O.Recorder.flagged rec_);
  check Alcotest.int "nothing pinned" 0 (O.Recorder.pinned_count rec_)

let test_recorder_retains_flagged_chain () =
  let rec_ = O.Recorder.create ~capacity:4 () in
  let col = O.Span.create () in
  O.Span.set_listener col (O.Recorder.add rec_);
  (* Runtime order: the root id is allocated first but its span is
     added last (retries complete before the fetch they delayed), so
     the recorder must pin the retry now and the root on arrival. *)
  let root_id = O.Span.fresh col in
  let retry =
    mk_span col ~kind:O.Span.Retry ~parent:root_id ~edge:O.Span.E_retry
      ~retry:40 ~fault:"transient" ()
  in
  let root =
    { retry with
      O.Span.sp_id = root_id; sp_kind = O.Span.Escalated; sp_parent = -1;
      sp_edge = None; sp_retry = 0; sp_proto = 90; sp_fault = None }
  in
  O.Span.add col root;
  (* Flood the ring far past capacity: the flagged chain must survive. *)
  for _ = 1 to 50 do
    ignore (mk_span col ~proto:1 ())
  done;
  check Alcotest.int "ring still bounded" 4 (O.Recorder.ring_length rec_);
  check Alcotest.int "both flagged" 2 (O.Recorder.flagged rec_);
  check Alcotest.bool "chain retained in full" true
    (O.Recorder.chain_of rec_ retry = [ root; retry ]);
  (match O.Recorder.last_flagged rec_ with
   | Some s ->
     check Alcotest.int "last flagged is the escalation" root_id
       s.O.Span.sp_id
   | None -> Alcotest.fail "no flagged span");
  let report =
    O.Recorder.postmortem ~reason:"test escalation" ~degrade_level:3
      ~names:(fun _ -> "mylist") rec_
  in
  List.iter
    (fun needle ->
      check Alcotest.bool ("postmortem mentions " ^ needle) true
        (contains report needle))
    [ "test escalation"; "escalated"; "retry"; "transient"; "mylist";
      "level 3" ]

let test_sink_postmortem_one_shot () =
  let sink = O.Sink.create ~postmortem:true () in
  check Alcotest.bool "recorder present" true (O.Sink.recorder sink <> None);
  check Alcotest.bool "collector implied" true (O.Sink.spans sink <> None);
  check Alcotest.bool "armed once" true (O.Sink.take_postmortem sink);
  check Alcotest.bool "latch consumed" false (O.Sink.take_postmortem sink);
  let plain = O.Sink.create ~span_rate:1.0 () in
  check Alcotest.bool "not armed without --postmortem" false
    (O.Sink.take_postmortem plain)

let test_resilience_table_quiet_row () =
  let all_zero =
    O.Export.resilience_table ~retries:0 ~timeouts:0 ~escalations:0
      ~pf_failed:0 ~pf_suppressed:0 ~degrade_steps:0 ~recover_steps:0
      ~degrade_level:0 ()
  in
  let s = Cards_util.Table.render all_zero in
  check Alcotest.bool "quiet run says so" true
    (contains s "(no faults observed)");
  let busy =
    O.Export.resilience_table ~retries:3 ~timeouts:0 ~escalations:0
      ~pf_failed:0 ~pf_suppressed:0 ~degrade_steps:0 ~recover_steps:0
      ~degrade_level:0 ()
  in
  let s = Cards_util.Table.render busy in
  check Alcotest.bool "busy run does not" false
    (contains s "(no faults observed)")

let test_span_chrome_export_flow_events () =
  let col = O.Span.create () in
  let a = mk_span col ~kind:O.Span.Prefetch ~proto:10 () in
  ignore
    (mk_span col ~kind:O.Span.Pf_settle ~parent:a.O.Span.sp_id
       ~edge:O.Span.E_satisfy ~pf_wait:5 ~issued:10 ());
  let s = O.Export.spans_chrome_trace_string ~names:(fun _ -> "ds") col in
  let j = J.parse s in
  let events =
    match J.member "traceEvents" j with
    | Some v -> (match J.to_list_opt v with Some l -> l | None -> [])
    | None -> []
  in
  let phases ph =
    List.filter (fun e -> J.member "ph" e = Some (J.Str ph)) events
  in
  check Alcotest.int "one X per span" 2 (List.length (phases "X"));
  check Alcotest.int "flow start per edge" 1 (List.length (phases "s"));
  check Alcotest.int "flow finish per edge" 1 (List.length (phases "f"))

(* Calls and policy changes as marks, on a pressure chase under
   adaptive prefetching and a faulty fabric: one Degrade span per
   degradation or recovery step, one Policy_switch span per prefetcher
   switch, and — marks never being sampled — the same calls and policy
   changes at span rates 1.0 and 0.5. *)
let test_span_marks () =
  let cfg =
    { pressure_cfg with
      R.Runtime.prefetch_mode = R.Runtime.Pf_adaptive;
      fabric_config =
        { pressure_cfg.R.Runtime.fabric_config with
          Cards_net.Fabric.faults =
            { Cards_net.Fabric.no_faults with
              Cards_net.Fabric.fault_rate = 0.2; fault_seed = 11 } } }
  in
  let marks rate =
    let obs = O.Sink.create ~span_rate:rate () in
    let _, rt = P.run ~obs (Lazy.force chase) cfg in
    let col = spans_of obs in
    List.iter
      (fun (s : O.Span.t) ->
        if O.Span.is_mark s.sp_kind then begin
          check Alcotest.int "a mark has no parent" (-1) s.sp_parent;
          check Alcotest.int "a mark has no phases" 0 (O.Span.stall s)
        end)
      (O.Span.spans col);
    (* The chase's [rnd] is called once per node and never touches a
       managed structure: a call during which no span was recorded
       leaves no Call span. *)
    check Alcotest.bool "span-less calls leave no call span" true
      (List.for_all
         (fun (s : O.Span.t) -> s.sp_fn <> "rnd")
         (of_kind "call" col));
    let count k = List.length (of_kind k col) in
    (rt, List.map (fun k -> (k, count k))
           [ "call"; "degrade"; "policy-switch"; "epoch"; "loop-version" ])
  in
  let rt, full = marks 1.0 in
  let st = R.Runtime.stats rt in
  let n k = List.assoc k full in
  check Alcotest.bool "the run degraded" true (R.Rt_stats.degrade_steps st > 0);
  check Alcotest.int "one degrade span per step"
    (R.Rt_stats.degrade_steps st + R.Rt_stats.recover_steps st)
    (n "degrade");
  let switches =
    List.fold_left
      (fun acc (r : R.Runtime.ds_report) -> acc + r.r_pf_switches)
      0 (R.Runtime.report rt)
  in
  check Alcotest.bool "adaptive mode switched" true (switches > 0);
  check Alcotest.int "one policy-switch span per switch" switches
    (n "policy-switch");
  check Alcotest.bool "calls recorded" true (n "call" > 0);
  let _, half = marks 0.5 in
  check
    Alcotest.(list (pair string int))
    "marks are not sampled" full half

(* ---------- what-if virtual speedups ---------- *)

let wi_predict ~total col sc = O.Whatif.predict ~total col sc

let wi_scenario ?scope factors =
  O.Whatif.scenario_of_factors ~id:"t" ~label:"test" ?scope factors

let test_whatif_single_chain () =
  (* One demand span: queued 10, proto 100, wire 50.  The identity
     replay must reproduce the totals bit-for-bit; halving proto must
     save exactly 50 cycles. *)
  let col = O.Span.create () in
  ignore (mk_span col ~queued:10 ~proto:100 ~wire:50 ());
  let total = 1000 in
  let id = wi_predict ~total col O.Whatif.identity in
  check Alcotest.int "identity predicts baseline" total id.O.Whatif.p_cycles;
  check Alcotest.int "identity saves nothing" 0 id.O.Whatif.p_saved;
  check Alcotest.int "identity chain = span stall" 160
    id.O.Whatif.p_chain_stall;
  let half =
    wi_predict ~total col
      (wi_scenario { O.Whatif.unit_factors with O.Whatif.f_proto = 0.5 })
  in
  check Alcotest.int "proto x0.5 saves half the proto" 50
    half.O.Whatif.p_saved;
  check Alcotest.int "predicted cycles drop by the saving" (total - 50)
    half.O.Whatif.p_cycles;
  (* Scoping: the span is on ds 1, so a ds-2 scope changes nothing. *)
  let other =
    wi_predict ~total col
      (wi_scenario ~scope:(O.Whatif.Ds 2)
         { O.Whatif.unit_factors with O.Whatif.f_proto = 0.5 })
  in
  check Alcotest.int "other-structure scope saves nothing" 0
    other.O.Whatif.p_saved

let test_whatif_diamond_batch_members () =
  (* Batch (proto 30, wire 40) fanning into two E_member prefetches
     completing at cumulative-serialization offsets (50, 70), and a
     settle at access time 60 waiting 10 cycles for the second member.
     Free wire pulls the member's landing back to cycle 30, so the
     settle wait vanishes entirely. *)
  let col = O.Span.create () in
  let b = mk_span col ~kind:O.Span.Batch ~proto:30 ~wire:40 () in
  let _m1 =
    mk_span col ~kind:O.Span.Prefetch ~parent:b.O.Span.sp_id
      ~edge:O.Span.E_member ~complete:50 ()
  in
  let m2 =
    mk_span col ~kind:O.Span.Prefetch ~parent:b.O.Span.sp_id
      ~edge:O.Span.E_member ~complete:70 ()
  in
  ignore
    (mk_span col ~kind:O.Span.Pf_settle ~parent:m2.O.Span.sp_id
       ~edge:O.Span.E_satisfy ~pf_wait:10 ~issued:60 ());
  let total = 500 in
  let id = wi_predict ~total col O.Whatif.identity in
  check Alcotest.int "identity exact through member completions" total
    id.O.Whatif.p_cycles;
  let free_wire =
    wi_predict ~total col
      (wi_scenario { O.Whatif.unit_factors with O.Whatif.f_wire = 0.0 })
  in
  check Alcotest.int "free wire erases the settle wait" 10
    free_wire.O.Whatif.p_saved

let test_whatif_retry_chain () =
  (* Runtime order: the demand root's id is allocated before its retry
     children, but its span is added after them.  A fault-free fabric
     (retry x0) must recover exactly the summed retry cycles. *)
  let col = O.Span.create () in
  let root_id = O.Span.fresh col in
  let r1 =
    mk_span col ~kind:O.Span.Retry ~parent:root_id ~edge:O.Span.E_retry
      ~retry:40 ~fault:"transient" ()
  in
  ignore
    (mk_span col ~kind:O.Span.Retry ~parent:root_id ~edge:O.Span.E_retry
       ~retry:40 ~fault:"transient" ());
  O.Span.add col
    { r1 with
      O.Span.sp_id = root_id; sp_parent = -1; sp_edge = None;
      sp_kind = O.Span.Demand; sp_retry = 0; sp_proto = 100; sp_issued = 80;
      sp_start = 80; sp_complete = 180; sp_fault = None };
  let total = 400 in
  let id = wi_predict ~total col O.Whatif.identity in
  check Alcotest.int "identity exact across retries" total
    id.O.Whatif.p_cycles;
  let no_retry =
    wi_predict ~total col
      (wi_scenario { O.Whatif.unit_factors with O.Whatif.f_retry = 0.0 })
  in
  check Alcotest.int "retry x0 recovers both backoffs" 80
    no_retry.O.Whatif.p_saved

(* Property over real runs: for every config in a small matrix, the
   identity replay of the recorded span graph reproduces both the
   measured cycle count and the critical-path analyzer's chain cost
   exactly. *)
let test_whatif_identity_matches_real_runs () =
  List.iter
    (fun (qp, rate) ->
      let cfg =
        { pressure_cfg with
          R.Runtime.fabric_config =
            { pressure_cfg.R.Runtime.fabric_config with
              Cards_net.Fabric.qp_count = qp;
              faults =
                { Cards_net.Fabric.no_faults with
                  Cards_net.Fabric.fault_rate = rate; fault_seed = 11 } } }
      in
      let obs = O.Sink.create ~span_rate:1.0 () in
      let res, _ = P.run ~obs (Lazy.force chase) cfg in
      let col = Option.get (O.Sink.spans obs) in
      let id = wi_predict ~total:res.cycles col O.Whatif.identity in
      check Alcotest.int
        (Printf.sprintf "identity exact (qp %d, rate %.1f)" qp rate)
        res.cycles id.O.Whatif.p_cycles;
      match O.Critical_path.analyze col with
      | Some r ->
        check Alcotest.int
          (Printf.sprintf "chain cost matches analyzer (qp %d, rate %.1f)" qp
             rate)
          r.O.Critical_path.r_chain_stall id.O.Whatif.p_chain_stall
      | None -> Alcotest.fail "no spans recorded")
    [ (1, 0.0); (2, 0.0); (2, 0.2) ]

(* Differential: every executable catalog scenario re-runs the program
   with the runtime knob actually changed, and the perturbation is
   timing-only — outputs bit-identical; the identity scenario's re-run
   reproduces the whole result record. *)
let test_whatif_validation_runs_bit_identical () =
  let obs = O.Sink.create ~span_rate:1.0 () in
  let res, rt = P.run ~obs (Lazy.force chase) pressure_cfg in
  let col = Option.get (O.Sink.spans obs) in
  let scenarios = O.Whatif.catalog ~names:(R.Runtime.ds_name rt) col in
  check Alcotest.bool "catalog has per-structure scenarios" true
    (List.exists
       (fun (sc : O.Whatif.scenario) -> sc.sc_scope <> O.Whatif.Global)
       scenarios);
  List.iter
    (fun (sc : O.Whatif.scenario) ->
      match R.Runtime.whatif_config pressure_cfg sc.sc_exec with
      | None -> Alcotest.failf "scenario %s is not executable" sc.sc_id
      | Some cfg' ->
        let res', _ = P.run (Lazy.force chase) cfg' in
        check (Alcotest.list Alcotest.string)
          (sc.sc_id ^ ": outputs bit-identical") res.output res'.output;
        if sc.sc_id = "identity" then
          check Alcotest.bool "identity re-run fully identical" true
            (res' = res))
    scenarios

let test_spans_folded_lines () =
  let col = O.Span.create () in
  let a = mk_span col ~proto:100 () in
  ignore
    (mk_span col ~kind:O.Span.Retry ~parent:a.O.Span.sp_id
       ~edge:O.Span.E_retry ~retry:25 ());
  ignore
    (mk_span col ~kind:O.Span.Retry ~parent:a.O.Span.sp_id
       ~edge:O.Span.E_retry ~retry:25 ());
  let s = O.Export.spans_folded ~names:(fun _ -> "my list") col in
  let lines = String.split_on_char '\n' (String.trim s) in
  (* Two distinct stacks: the demand alone, and the (aggregated) retry
     frames under it. *)
  check Alcotest.int "two aggregated stacks" 2 (List.length lines);
  check Alcotest.bool "demand stack carries its stall" true
    (List.exists (fun l -> l = "demand:my_list:t@0.0 100") lines);
  check Alcotest.bool "retries aggregate under the demand" true
    (List.exists
       (fun l -> l = "demand:my_list:t@0.0;retry:my_list:t@0.0 50")
       lines)

let test_metrics_csv_shape () =
  let obs = full_sink () in
  ignore (P.run ~obs (Lazy.force chase) pressure_cfg);
  let m = Option.get (O.Sink.metrics obs) in
  let csv = O.Export.metrics_csv m in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "header + one row per sample"
    (O.Metrics.n_samples m + 1)
    (List.length lines);
  let cols s = List.length (String.split_on_char ',' s) in
  let header = List.hd lines in
  check Alcotest.bool "fetched_bytes column present" true
    (contains header "fetched_bytes");
  List.iter
    (fun l -> check Alcotest.int "row arity matches header" (cols header)
        (cols l))
    lines

(* The allocation-free hot path, measured: guard hits, heap
   accesses, prefetch issue that sends nothing and the ledger must not
   allocate a single word, and a sink without a span collector must
   add nothing.  Each loop is timed as the delta between N and 2N
   iterations, which cancels whatever boxing the measurement harness
   itself does. *)
let minor_words_per_iter f n =
  let delta k =
    let w0 = Gc.minor_words () in
    for _ = 1 to k do f () done;
    Gc.minor_words () -. w0
  in
  ignore (delta n);
  (* warm every lazy path first *)
  let d1 = delta n in
  let d2 = delta (2 * n) in
  (d2 -. d1) /. float_of_int n

let test_spans_off_allocation_free () =
  let mk_rt ?(prefetch_mode = R.Runtime.Pf_none) obs =
    let rt =
      R.Runtime.create ?obs
        { R.Runtime.default_config with
          policy = R.Policy.All_remotable; k = 0.0;
          local_bytes = 1024 * 1024; remotable_bytes = 512 * 1024;
          prefetch_mode }
        [| R.Static_info.default ~sid:0 |]
    in
    let h = R.Runtime.ds_init rt ~sid:0 in
    let a = R.Runtime.ds_alloc rt ~handle:h ~size:(16 * 4096) in
    R.Runtime.guard rt ~write:false a;
    (rt, a)
  in
  let n = 10_000 in
  (* [Gc.minor_words] itself boxes a float per probe; the N-vs-2N
     delta cancels it up to sub-word float noise, hence the epsilon. *)
  let eps = 0.01 in
  let zero what words =
    check Alcotest.bool
      (Printf.sprintf "%s allocates nothing (%.3f words)" what words)
      true
      (Float.abs words < eps)
  in
  (* Unmanaged custody checks. *)
  let null_rt, _ = mk_rt None in
  zero "unmanaged guard"
    (minor_words_per_iter
       (fun () -> R.Runtime.guard null_rt ~write:false 64) n);
  (* Managed guard hits, with and without a span-less sink. *)
  let base_rt, base_a = mk_rt None in
  let base =
    minor_words_per_iter
      (fun () -> R.Runtime.guard base_rt ~write:false base_a) n
  in
  zero "guard hit" base;
  let off_rt, off_a = mk_rt (Some (O.Sink.create ())) in
  let off =
    minor_words_per_iter
      (fun () -> R.Runtime.guard off_rt ~write:false off_a) n
  in
  check Alcotest.bool "span-less sink adds no allocation" true
    (Float.abs (off -. base) < eps);
  (* i64 accesses, and f64 ones through the register file. *)
  let rt, a = mk_rt None in
  zero "i64 read"
    (minor_words_per_iter (fun () -> ignore (R.Runtime.read_i64 rt a)) n);
  zero "i64 write"
    (minor_words_per_iter (fun () -> R.Runtime.write_i64 rt a 42) n);
  let regs = Array.make 2 1.5 in
  zero "f64 store from the register file"
    (minor_words_per_iter (fun () -> R.Runtime.write_f64_from rt a regs 0) n);
  zero "f64 load into the register file"
    (minor_words_per_iter (fun () -> R.Runtime.read_f64_into rt a regs 1) n);
  check (Alcotest.float 0.0) "f64 round trip" 1.5 regs.(1);
  (* Guard hits walking a resident pool under a locked stride
     prefetcher: every call fills the target buffer and filters it,
     and every window object is already resident, so nothing is sent. *)
  let srt, sa = mk_rt ~prefetch_mode:R.Runtime.Pf_stride_only None in
  let i = ref 0 in
  let walk () =
    R.Runtime.guard srt ~write:false (sa + ((!i land 15) * 4096));
    incr i
  in
  for _ = 1 to 64 do walk () done;
  let fabric_before = (R.Runtime.fabric_stats srt).Cards_net.Fabric.fetches in
  zero "stride guard hit, resident window" (minor_words_per_iter walk n);
  let pf_calls, pf_targets =
    match R.Runtime.report srt with
    | [ r ] -> (r.R.Runtime.r_pf_calls, r.R.Runtime.r_pf_targets)
    | _ -> (0, 0)
  in
  check Alcotest.bool "the stride prefetcher emitted targets" true
    (pf_calls > n && pf_targets > 0);
  check Alcotest.int "nothing went on the wire" fabric_before
    (R.Runtime.fabric_stats srt).Cards_net.Fabric.fetches;
  (* Guard hits alternating between two access sites: each charge
     lands in another ledger cell. *)
  let lrt, la = mk_rt None in
  let site = R.Runtime.site lrt in
  let fn = "loop" in
  let flip = ref false in
  let two_sites () =
    flip := not !flip;
    if site.site_fn != fn then site.site_fn <- fn;
    site.site_block <- 1;
    site.site_instr <- (if !flip then 2 else 5);
    R.Runtime.guard lrt ~write:false la
  in
  zero "guard hits alternating between two sites"
    (minor_words_per_iter two_sites n)

(* A demand miss allocates nothing: the fabric hands back records it
   owns, the queue-pair causes of the ledger are built once and the
   latency histogram keeps its floats unboxed.  Guards cycle over a
   64-object pool behind a 2-object remotable cache with prefetching
   off, so every guard misses and evicts. *)
let test_demand_miss_allocation () =
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1024 * 1024; remotable_bytes = 2 * 4096;
        prefetch_mode = R.Runtime.Pf_none }
      [| R.Static_info.default ~sid:0 |]
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(64 * 4096) in
  let i = ref 0 in
  let miss () =
    R.Runtime.guard rt ~write:false (a + ((!i land 63) * 4096));
    incr i
  in
  let words = minor_words_per_iter miss 10_000 in
  let faults () =
    (R.Rt_stats.total (R.Runtime.stats rt)).R.Rt_stats.remote_faults
  in
  let before = faults () in
  for _ = 1 to 128 do miss () done;
  check Alcotest.int "every guard misses" 128 (faults () - before);
  check Alcotest.bool
    (Printf.sprintf "a demand miss allocates nothing (%.3f words)" words)
    true (Float.abs words < 0.01)

(* The rest of the remote path allocates nothing either: a latency
   sample, and a unit-stride walk whose prefetcher tops its window up
   with one 12-object batch every 12 guards.  The walk laps a 256-object
   pool behind a 32-object cache, so each batch lands on objects
   evicted a lap before, and its own arrivals evict (dirty ones with a
   coalesced writeback).  A lap is the same work every time, so N and
   2N laps cancel everything but the per-guard cost. *)
let test_remote_path_allocation_free () =
  let zero what words =
    check Alcotest.bool
      (Printf.sprintf "%s allocates nothing (%.3f words)" what words)
      true
      (Float.abs words < 0.01)
  in
  let s = Cards_util.Stats.create () in
  let x = 12_345.0 in
  zero "Stats.add" (minor_words_per_iter (fun () -> Cards_util.Stats.add s x) 10_000);
  zero "Stats.add_int"
    (minor_words_per_iter (fun () -> Cards_util.Stats.add_int s 54_321) 10_000);
  let pool = 256 in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1024 * 1024; remotable_bytes = 32 * 4096;
        prefetch_mode = R.Runtime.Pf_stride_only; prefetch_depth = 11 }
      [| R.Static_info.default ~sid:0 |]
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(pool * 4096) in
  let i = ref 0 in
  let walk () =
    R.Runtime.guard rt ~write:(!i land 1 = 0) (a + ((!i mod pool) * 4096));
    incr i
  in
  let fs () = R.Runtime.fabric_stats rt in
  let before = fs () in
  zero "a unit-stride walk issuing 12-object batches"
    (minor_words_per_iter walk (40 * pool));
  let after = fs () in
  let batches = after.Cards_net.Fabric.batches - before.Cards_net.Fabric.batches in
  let objects =
    after.Cards_net.Fabric.batched_objects - before.Cards_net.Fabric.batched_objects
  in
  check Alcotest.bool "the walk issued batches" true (batches > 0);
  check Alcotest.bool
    (Printf.sprintf "most batches carry 12 objects (%d objects in %d)" objects
       batches)
    true
    (objects >= 11 * batches);
  check Alcotest.bool "dirty evictions were written back" true
    (after.Cards_net.Fabric.wb_batches > before.Cards_net.Fabric.wb_batches)

(* The decoded engine end to end: a MiniC loop of guarded i64 and f64
   loads and stores and float-register arithmetic, and a loop making
   two calls per iteration, one returning an int and one a float.  A
   program's setup allocates the same at any trip count, so a run
   allocates the same number of minor words at 2 000 and at 4 000
   trips exactly when an iteration allocates nothing. *)
let test_decoded_loop_allocation_free () =
  let src trips =
    Printf.sprintf
      {|int main() {
  int *cnt = malloc(64 * 8);
  double *val = malloc(64 * 8);
  int i = 0;
  double acc = 0.0;
  while (i < %d) {
    int j = i %% 64;
    cnt[j] = cnt[j] + i;
    double v = val[j] * 0.5 + 1.0;
    val[j] = v;
    if (v > acc) { acc = v; }
    acc = acc - v * 0.25;
    i = i + 1;
  }
  return cnt[7];
}|}
      trips
  in
  let cfg =
    { R.Runtime.default_config with
      policy = R.Policy.All_remotable; k = 0.0;
      local_bytes = 1024 * 1024; remotable_bytes = 512 * 1024 }
  in
  let calls trips =
    Printf.sprintf
      {|int addi(int a, int b) { return a + b; }
double scale(double x, double k) { return x * k + 1.0; }
int main() {
  int s = 0;
  double d = 0.0;
  int i = 0;
  while (i < %d) {
    s = addi(s, i);
    d = scale(d, 0.5);
    i = i + 1;
  }
  print_float(d);
  return s %% 1000;
}|}
      trips
  in
  let words src trips =
    let compiled = P.compile_source (src trips) in
    let w0 = Gc.minor_words () in
    let res, rt = P.run compiled cfg in
    let w = Gc.minor_words () -. w0 in
    (w, res, R.Runtime.stats rt)
  in
  ignore (words src 2_000);
  let w1, _, st1 = words src 2_000 in
  let w2, _, _ = words src 4_000 in
  let guards =
    (R.Rt_stats.total st1).R.Rt_stats.guards
  in
  check Alcotest.bool "the loop runs guarded accesses" true (guards >= 2_000);
  check (Alcotest.float 0.0)
    "same minor words at 2 000 and 4 000 trips" w1 w2;
  ignore (words calls 2_000);
  let c1, r1, _ = words calls 2_000 in
  let c2, r2, _ = words calls 4_000 in
  check Alcotest.(list string) "the call loop ran" [ "2" ] r1.Cards_interp.Machine.output;
  check Alcotest.int "the call loop returned" 0 r2.Cards_interp.Machine.ret;
  check (Alcotest.float 0.0)
    "two calls per iteration: same minor words at 2 000 and 4 000 trips"
    c1 c2
(* The ledger's cell cache is invisible: a random interleaving of
   charges over more (ds, site) keys than the cache has slots — so
   keys keep evicting each other — with one function name spelled by
   two physically distinct strings, folds to the same per-cause,
   per-structure and per-site totals as a plain table of the same
   charges, and its running [total] equals those folds. *)
let prop_ledger_cache_exact =
  let names = [| "main"; "walk"; "build"; String.concat "" [ "ma"; "in" ] |] in
  let causes =
    O.Attribution.
      [| Proto; Wire; Queue 0; Queue 2; Pf_wait; Retry; Guard_exec; Trap;
         Bookkeeping |]
  in
  let charge_gen =
    QCheck.Gen.(
      map
        (fun ((ds, fn, block), (instr, cause, cycles)) ->
          (ds, fn, block, instr, cause, cycles))
        (pair
           (triple (int_range 0 3) (int_range 0 3) (int_range (-1) 63))
           (triple (int_range 0 15) (int_range 0 8) (int_range 1 1000))))
  in
  QCheck.Test.make ~name:"ledger cell cache folds exactly" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 4000) charge_gen))
    (fun charges ->
      let led = O.Attribution.create () in
      let plain = Hashtbl.create 64 and per_site = Hashtbl.create 64 in
      let add tbl key cycles =
        Hashtbl.replace tbl key
          (cycles + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      in
      List.iter
        (fun (ds, fn, block, instr, cause, cycles) ->
          let cause = causes.(cause) in
          O.Attribution.charge led ~ds ~fn:names.(fn) ~block ~instr cause
            cycles;
          add plain (ds, cause) cycles;
          add per_site (ds, names.(fn), block, instr) cycles)
        charges;
      let fold pick =
        Hashtbl.fold (fun k v acc -> if pick k then acc + v else acc) plain 0
      in
      let want_totals =
        List.map
          (fun cause -> (cause, fold (fun (_, c) -> c = cause)))
          (O.Attribution.causes led)
      in
      let site_totals =
        List.map
          (fun (r : O.Attribution.site_row) ->
            ((r.r_ds, r.r_site.s_fn, r.r_site.s_block, r.r_site.s_instr),
             r.r_total))
          (O.Attribution.site_rows led)
      in
      O.Attribution.cause_totals led = want_totals
      && O.Attribution.total led = fold (fun _ -> true)
      && O.Attribution.total led
         = List.fold_left (fun acc (_, v) -> acc + v) 0 site_totals
      && List.sort compare site_totals
         = List.sort compare
             (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_site [])
      && List.for_all
           (fun ds ->
             O.Attribution.ds_cause_totals led ds
             = List.map
                 (fun cause ->
                   (cause, fold (fun (d, c) -> d = ds && c = cause)))
                 (O.Attribution.causes led))
           [ 0; 1; 2; 3 ])

let suite =
  [ Alcotest.test_case "attribution sums to total" `Quick
      test_attribution_sums_to_total;
    Alcotest.test_case "attribution balances when pinned" `Quick
      test_attribution_all_pinned_is_pure_compute_and_alloc;
    Alcotest.test_case "stall ledger exact" `Quick test_stall_attribution_exact;
    Alcotest.test_case "stall sites named" `Quick
      test_stall_attribution_sites_named;
    Alcotest.test_case "stall ledger exact across qp matrix" `Quick
      test_attribution_qp_matrix;
    Alcotest.test_case "chrome trace qp rows" `Quick test_chrome_trace_qp_rows;
    Alcotest.test_case "exporters on zero-event run" `Quick
      test_exporters_on_zero_event_run;
    Alcotest.test_case "regression gate" `Quick test_regress_clean_and_perturbed;
    Alcotest.test_case "full sink is cycle-identical" `Quick
      test_sink_off_bit_identical;
    Alcotest.test_case "chrome trace round-trips" `Quick
      test_chrome_trace_roundtrips;
    Alcotest.test_case "events jsonl parses" `Quick test_events_jsonl_parses;
    Alcotest.test_case "prefetch & batch events round-trip" `Quick
      test_prefetch_and_batch_events_roundtrip;
    Alcotest.test_case "profile table renders" `Quick
      test_profile_table_renders;
    Alcotest.test_case "profile table groups the ledger" `Quick
      test_profile_table_groups_ledger;
    Alcotest.test_case "metrics sampled" `Quick test_metrics_sampled;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "span sampling deterministic" `Quick
      test_span_sampling_deterministic;
    Alcotest.test_case "span inflight registry" `Quick
      test_span_inflight_registry;
    Alcotest.test_case "span well-formedness" `Quick
      test_span_well_formed_rejects_forward_edge;
    Alcotest.test_case "critical path on a synthetic chain" `Quick
      test_critical_path_synthetic_chain;
    Alcotest.test_case "recorder ring bounded" `Quick test_recorder_ring_bound;
    Alcotest.test_case "recorder retains flagged chain" `Quick
      test_recorder_retains_flagged_chain;
    Alcotest.test_case "postmortem latch one-shot" `Quick
      test_sink_postmortem_one_shot;
    Alcotest.test_case "resilience table quiet row" `Quick
      test_resilience_table_quiet_row;
    Alcotest.test_case "span chrome export flow events" `Quick
      test_span_chrome_export_flow_events;
    Alcotest.test_case "span marks count calls and policy changes" `Quick
      test_span_marks;
    Alcotest.test_case "whatif single chain" `Quick test_whatif_single_chain;
    Alcotest.test_case "whatif diamond batch members" `Quick
      test_whatif_diamond_batch_members;
    Alcotest.test_case "whatif retry chain" `Quick test_whatif_retry_chain;
    Alcotest.test_case "whatif identity matches real runs" `Quick
      test_whatif_identity_matches_real_runs;
    Alcotest.test_case "whatif validation bit-identical" `Quick
      test_whatif_validation_runs_bit_identical;
    Alcotest.test_case "spans folded lines" `Quick test_spans_folded_lines;
    Alcotest.test_case "metrics csv shape" `Quick test_metrics_csv_shape;
    Alcotest.test_case "spans off allocation-free" `Quick
      test_spans_off_allocation_free;
    Alcotest.test_case "demand miss allocation" `Quick
      test_demand_miss_allocation;
    Alcotest.test_case "remote path allocation-free" `Quick
      test_remote_path_allocation_free;
    Alcotest.test_case "decoded loop allocation-free" `Quick
      test_decoded_loop_allocation_free;
    QCheck_alcotest.to_alcotest prop_ledger_cache_exact ]
