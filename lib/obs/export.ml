module Json = Cards_util.Json
module Table = Cards_util.Table

let pct part total =
  if total <= 0 then "0.0%"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int part /. float_of_int total)

(* ---------- metric samples ---------- *)

let metrics_csv metrics =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "cycle,ds,name,resident_bytes,guards,guard_hits,remote_faults,\
     clean_faults,pf_issued,pf_used,pf_late,evictions,fetched_bytes,\
     prefetcher,pf_switches\n";
  List.iter
    (fun (s : Metrics.sample) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d\n"
           s.m_cycle s.m_ds s.m_name s.m_resident_bytes s.m_guards
           s.m_guard_hits s.m_remote_faults s.m_clean_faults s.m_pf_issued
           s.m_pf_used s.m_pf_late s.m_evictions s.m_fetched_bytes
           s.m_prefetcher s.m_pf_switches))
    (Metrics.samples metrics);
  Buffer.contents buf

(* ---------- Chrome trace_event ---------- *)

(* The trace_event JSON format understood by chrome://tracing and
   Perfetto: an object with a "traceEvents" array; each event has a
   phase "ph" ("X" complete with "dur", "s"/"f" flow arrows, "M"
   metadata), microsecond timestamps "ts", and process/thread ids. *)

let us_of_cycles ~freq_ghz c = float_of_int c /. (freq_ghz *. 1000.0)

(* QP rows sort after every plausible structure handle. *)
let qp_tid_base = 100_000

(* ---------- causal spans ---------- *)

let span_json (s : Span.t) =
  Json.Obj
    ([ ("span", Json.Int s.sp_id);
       ("kind", Json.Str (Span.kind_name s.sp_kind)) ]
     @ (if s.sp_parent >= 0 then
          [ ("parent", Json.Int s.sp_parent);
            ("edge",
             Json.Str
               (match s.sp_edge with
               | Some e -> Span.edge_name e
               | None -> "?")) ]
        else [])
     @ [ ("ds", Json.Int s.sp_ds);
         ("obj", Json.Int s.sp_obj);
         ("site",
          Json.Str (Printf.sprintf "%s@%d.%d" s.sp_fn s.sp_block s.sp_instr));
         ("issued", Json.Int s.sp_issued);
         ("start", Json.Int s.sp_start);
         ("complete", Json.Int s.sp_complete);
         ("queued", Json.Int s.sp_queued);
         ("proto", Json.Int s.sp_proto);
         ("wire", Json.Int s.sp_wire);
         ("retry", Json.Int s.sp_retry);
         ("pf_wait", Json.Int s.sp_pf_wait);
         ("trap", Json.Int s.sp_trap);
         ("stall", Json.Int (Span.stall s));
         ("qp", Json.Int s.sp_qp);
         ("bytes", Json.Int s.sp_bytes) ]
     @ (match s.sp_fault with
        | Some f -> [ ("fault", Json.Str f) ]
        | None -> [])
     @
     match s.sp_kind with
     | Span.Degrade { level; observed_pct } ->
       [ ("level", Json.Int level); ("observed_pct", Json.Int observed_pct) ]
     | Span.Policy_switch { from_pf; to_pf } ->
       [ ("from", Json.Str from_pf); ("to", Json.Str to_pf) ]
     | Span.Loop_version { clean } -> [ ("clean", Json.Bool clean) ]
     | _ -> [])

let spans_jsonl collector =
  let buf = Buffer.create 4096 in
  Span.iter
    (fun s ->
      Buffer.add_string buf (Json.to_string (span_json s));
      Buffer.add_char buf '\n')
    collector;
  Buffer.contents buf

(* Span rows in the Chrome trace: fabric-carrying spans (demand,
   escalated, prefetch, batch) sit on their queue pair's row, CPU-side
   spans (retry, settle, hit, trap, a structure's policy switch and
   epoch marks) on their structure's row, and calls, degradation
   steps and loop versions on the interpreter row (handle 0, where
   Perfetto nests the call spans by time).  Each parent edge becomes a
   flow arrow ("s" at the parent, "f" at the child) so Perfetto draws
   the causal chain across rows. *)

let span_tid (s : Span.t) =
  if s.sp_qp >= 0 then qp_tid_base + s.sp_qp else s.sp_ds

let spans_chrome_trace ?(freq_ghz = 2.4) ?names collector =
  let by_id = Hashtbl.create (Span.length collector) in
  Span.iter (fun s -> Hashtbl.replace by_id s.Span.sp_id s) collector;
  let evs = ref [] in
  let push e = evs := e :: !evs in
  Span.iter
    (fun (s : Span.t) ->
      let ts = us_of_cycles ~freq_ghz s.sp_issued in
      let dur = us_of_cycles ~freq_ghz (max 0 (s.sp_complete - s.sp_issued)) in
      push
        (Json.Obj
           [ ("name", Json.Str (Span.kind_name s.sp_kind));
             ("cat", Json.Str "span");
             ("ph", Json.Str "X");
             ("ts", Json.Float ts);
             ("dur", Json.Float dur);
             ("pid", Json.Int 1);
             ("tid", Json.Int (span_tid s));
             ("args",
              Json.Obj
                (List.filter
                   (fun (k, _) ->
                     not (List.mem k [ "kind"; "issued"; "complete" ]))
                   (match span_json s with
                   | Json.Obj fields -> fields
                   | _ -> []))) ]);
      if s.sp_parent >= 0 then
        match Hashtbl.find_opt by_id s.sp_parent with
        | None -> ()
        | Some (p : Span.t) ->
          let name =
            match s.sp_edge with
            | Some e -> Span.edge_name e
            | None -> "edge"
          in
          let flow ph bind tid cycle =
            push
              (Json.Obj
                 ([ ("name", Json.Str name);
                    ("cat", Json.Str "span-flow");
                    ("ph", Json.Str ph);
                    ("id", Json.Int s.sp_id);
                    ("ts", Json.Float (us_of_cycles ~freq_ghz cycle));
                    ("pid", Json.Int 1);
                    ("tid", Json.Int tid) ]
                  @ bind))
          in
          flow "s" [] (span_tid p) p.sp_complete;
          flow "f" [ ("bp", Json.Str "e") ] (span_tid s) s.sp_issued)
    collector;
  let tids = Hashtbl.create 8 in
  Span.iter (fun s -> Hashtbl.replace tids (span_tid s) ()) collector;
  let thread_name tid =
    let name =
      if tid >= qp_tid_base then Printf.sprintf "qp%d spans" (tid - qp_tid_base)
      else if tid = 0 then "interpreter"
      else
        match names with
        | Some f -> f tid
        | None -> Printf.sprintf "ds %d" tid
    in
    Json.Obj
      [ ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.Str name) ]) ]
  in
  let metas =
    Json.Obj
      [ ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str "CaRDS causal spans") ]) ]
    :: (Hashtbl.fold (fun tid () acc -> tid :: acc) tids []
        |> List.sort compare
        |> List.map thread_name)
  in
  Json.Obj
    [ ("traceEvents", Json.List (metas @ List.rev !evs));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData",
       Json.Obj
         [ ("tool", Json.Str "cards");
           ("clock", Json.Str (Printf.sprintf "%.1f GHz simulated" freq_ghz));
           ("spans", Json.Int (Span.length collector)) ]) ]

let spans_chrome_trace_string ?freq_ghz ?names collector =
  Json.to_string (spans_chrome_trace ?freq_ghz ?names collector)

(* ---------- folded stacks (flamegraph.pl / speedscope input) ---------- *)

(* One line per distinct causal stack: frames root-to-leaf joined by
   ';', a space, then the summed stall.  Each stall-carrying span
   contributes its own stall under the stack of its parent chain, so a
   retry's cycles nest under the demand fetch it delayed and a settle
   under the prefetch it consumed — rendering the span DAG the way
   flamegraph tooling expects.  Frames fold the span's identity into
   [kind:structure:fn@block.instr]; ';' and whitespace (the format's
   separators) are sanitized out.  Lines are sorted, so the output is
   deterministic and diffable. *)

let folded_frame ?names (s : Span.t) =
  let ds =
    match names with
    | Some f -> f s.sp_ds
    | None -> Printf.sprintf "ds%d" s.sp_ds
  in
  let raw =
    Printf.sprintf "%s:%s:%s@%d.%d"
      (Span.kind_name s.sp_kind) ds s.sp_fn s.sp_block s.sp_instr
  in
  String.map (fun c -> if c = ';' || c = ' ' || c = '\t' then '_' else c) raw

let spans_folded ?names collector =
  let by_id = Hashtbl.create (max 16 (Span.length collector)) in
  Span.iter (fun s -> Hashtbl.replace by_id s.Span.sp_id s) collector;
  let stacks : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Span.iter
    (fun (s : Span.t) ->
      let cost = Span.stall s in
      if cost > 0 then begin
        (* Root-to-leaf frame list via the parent chain.  Parents are
           strictly older ids (well-formedness invariant), so the walk
           terminates; a sampled-out parent just truncates the stack. *)
        let rec frames (s : Span.t) acc =
          let acc = folded_frame ?names s :: acc in
          if s.sp_parent < 0 then acc
          else
            match Hashtbl.find_opt by_id s.sp_parent with
            | Some p -> frames p acc
            | None -> acc
        in
        let stack = String.concat ";" (frames s []) in
        Hashtbl.replace stacks stack
          ((match Hashtbl.find_opt stacks stack with
            | Some v -> v
            | None -> 0)
          + cost)
      end)
    collector;
  Hashtbl.fold
    (fun stack cost acc -> Printf.sprintf "%s %d\n" stack cost :: acc)
    stacks []
  |> List.sort compare |> String.concat ""

let critical_path_table ?(title = "Critical path (longest causal chain)")
    ~names (r : Critical_path.report) =
  let t =
    Table.create ~title
      ~header:[ "step"; "kind"; "structure"; "obj"; "site"; "issued";
                "complete"; "stall"; "dominant phase" ]
  in
  let cyc c = Table.fmt_cycles (float_of_int c) in
  List.iteri
    (fun i (s : Span.t) ->
      let phases =
        [ ("queued", s.Span.sp_queued); ("proto", s.sp_proto);
          ("wire", s.sp_wire); ("retry", s.sp_retry);
          ("pf-wait", s.sp_pf_wait); ("trap", s.sp_trap) ]
      in
      let dom_name, dom =
        List.fold_left
          (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
          ("-", 0) phases
      in
      Table.add_row t
        [ string_of_int (i + 1);
          Span.kind_name s.sp_kind
          ^ (match s.sp_fault with Some f -> " (" ^ f ^ ")" | None -> "");
          names s.sp_ds; string_of_int s.sp_obj;
          Printf.sprintf "%s@%d.%d" s.sp_fn s.sp_block s.sp_instr;
          cyc s.sp_issued; cyc s.sp_complete; cyc (Span.stall s);
          (if dom = 0 then "-"
           else Printf.sprintf "%s %s" dom_name (pct dom (Span.stall s))) ])
    r.Critical_path.r_chain;
  let p = r.r_phases in
  let part name v =
    if v > 0 then Printf.sprintf "%s %s" name (pct v r.r_chain_stall) else ""
  in
  let split =
    [ part "queued" p.cp_queued; part "proto" p.cp_proto;
      part "wire" p.cp_wire; part "retry" p.cp_retry;
      part "pf-wait" p.cp_pf_wait; part "trap" p.cp_trap ]
    |> List.filter (fun s -> s <> "")
    |> String.concat ", "
  in
  Table.add_row t
    [ "CHAIN"; Printf.sprintf "%d spans" (List.length r.r_chain); ""; ""; "";
      ""; cyc r.r_end; cyc r.r_chain_stall;
      (if split = "" then "-" else split) ];
  let by_ds =
    r.r_by_ds
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun (ds, v) ->
           Printf.sprintf "%s %s" (names ds) (pct v r.r_chain_stall))
    |> String.concat ", "
  in
  Table.add_row t
    [ "ANALYZED"; Printf.sprintf "%d spans" r.r_span_count; ""; ""; ""; "";
      ""; ""; (if by_ds = "" then "-" else by_ds) ];
  t

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ---------- human tables ---------- *)

(* The profile table's stall columns, each a group of ledger causes. *)
let profile_column = function
  | Attribution.Guard_exec -> 0
  | Attribution.Proto | Attribution.Wire -> 1
  | Attribution.Queue _ -> 2
  | Attribution.Pf_wait -> 3
  | Attribution.Retry -> 4
  | Attribution.Trap -> 5
  | Attribution.Bookkeeping -> 6

let profile_table ?(title = "Cycle attribution (per data structure)")
    ~names prof attr =
  let t =
    Table.create ~title
      ~header:[ "structure"; "guard"; "demand stall"; "queueing"; "pf stall";
                "retry"; "trap"; "alloc"; "total"; "share"; "pf hidden" ]
  in
  let comp = Profile.compute prof in
  let total = comp + Attribution.total attr in
  let cyc c = Table.fmt_cycles (float_of_int c) in
  List.iter
    (fun h ->
      let cols = Array.make 7 0 in
      List.iter
        (fun (cause, v) ->
          let i = profile_column cause in
          cols.(i) <- cols.(i) + v)
        (Attribution.ds_cause_totals attr h);
      let wall = Array.fold_left ( + ) 0 cols in
      Table.add_row t
        ((names h :: List.map cyc (Array.to_list cols))
         @ [ cyc wall; pct wall total; cyc (Profile.hidden prof h) ]))
    (Attribution.ds_list attr);
  Table.add_row t
    [ "(compute)"; ""; ""; ""; ""; ""; ""; ""; cyc comp; pct comp total; "" ];
  Table.add_row t
    [ "TOTAL"; ""; ""; ""; ""; ""; ""; ""; cyc total; "100.0%"; "" ];
  t

let percentile_points = [ ("p50", 50.0); ("p90", 90.0); ("p99", 99.0); ("p999", 99.9) ]

let percentile_summary lat =
  percentile_points
  |> List.map (fun (name, p) ->
         Printf.sprintf "%s=%s" name
           (Table.fmt_cycles (Cards_util.Stats.percentile lat p)))
  |> String.concat "  "

let latency_table ?(title = "Fetch latency (demand stalls + late prefetch waits)")
    prof =
  let lat = Profile.merged_latency prof in
  let hist = Cards_util.Stats.log2_counts lat in
  let t = Table.create ~title ~header:[ "latency (cycles)"; "count"; "" ] in
  let maxc = Array.fold_left max 0 hist in
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        let lo = 1 lsl i and hi = (1 lsl (i + 1)) - 1 in
        let bar =
          if maxc = 0 then ""
          else String.make (max 1 (n * 40 / maxc)) '#'
        in
        Table.add_row t
          [ Printf.sprintf "%s - %s"
              (Table.fmt_cycles (float_of_int lo))
              (Table.fmt_cycles (float_of_int hi));
            string_of_int n; bar ]
      end)
    hist;
  if Cards_util.Stats.count lat > 0 then
    Table.add_row t
      [ "percentiles"; string_of_int (Cards_util.Stats.count lat);
        percentile_summary lat ];
  t

let latency_percentiles_table ?(title = "Fetch latency percentiles") ~names prof =
  let t =
    Table.create ~title
      ~header:[ "structure"; "fetches"; "p50"; "p90"; "p99"; "p999"; "max" ]
  in
  let row name lat =
    if Cards_util.Stats.count lat > 0 then
      Table.add_row t
        (name :: string_of_int (Cards_util.Stats.count lat)
         :: (List.map
               (fun (_, p) ->
                 Table.fmt_cycles (Cards_util.Stats.percentile lat p))
               percentile_points
             @ [ Table.fmt_cycles (Cards_util.Stats.max lat) ]))
  in
  List.iter
    (fun h -> row (names h) (Profile.latency (Profile.buckets prof h)))
    (Profile.handles prof);
  row "ALL" (Profile.merged_latency prof);
  t

(* The serving layer's per-tenant request-latency view: one row per
   tenant plus an ALL row merged bucket-wise — the merge is exact on
   the histogram, so ALL equals the histogram of the concatenated
   samples (the Stats-merge satellite asserts this). *)
let serve_latency_table ?(title = "Per-tenant request latency") rows =
  let t =
    Table.create ~title
      ~header:[ "tenant"; "served"; "p50"; "p90"; "p99"; "p999"; "max" ]
  in
  let row name served lat =
    if Cards_util.Stats.count lat > 0 then
      Table.add_row t
        (name :: string_of_int served
         :: (List.map
               (fun (_, p) ->
                 Table.fmt_cycles (Cards_util.Stats.percentile lat p))
               percentile_points
             @ [ Table.fmt_cycles (Cards_util.Stats.max lat) ]))
  in
  List.iter (fun (name, lat, served) -> row name served lat) rows;
  (match rows with
   | [] | [ _ ] -> ()
   | (_, first, _) :: rest ->
     let merged =
       List.fold_left
         (fun acc (_, lat, _) -> Cards_util.Stats.merge acc lat)
         first rest
     in
     row "ALL" (List.fold_left (fun a (_, _, s) -> a + s) 0 rows) merged);
  t

(* ---------- stall attribution tables ---------- *)

let attribution_table ?(title = "Stall root causes (per data structure)")
    ~names attr =
  let causes = Attribution.causes attr in
  let t =
    Table.create ~title
      ~header:
        ("structure" :: List.map Attribution.cause_name causes
         @ [ "total stall"; "share" ])
  in
  let grand = Attribution.total attr in
  let cyc c = if c = 0 then "" else Table.fmt_cycles (float_of_int c) in
  List.iter
    (fun ds ->
      let per = Attribution.ds_cause_totals attr ds in
      let tot = List.fold_left (fun acc (_, v) -> acc + v) 0 per in
      Table.add_row t
        (names ds :: List.map (fun (_, v) -> cyc v) per
         @ [ Table.fmt_cycles (float_of_int tot); pct tot grand ]))
    (Attribution.ds_list attr);
  let totals = Attribution.cause_totals attr in
  Table.add_row t
    ("TOTAL" :: List.map (fun (_, v) -> cyc v) totals
     @ [ Table.fmt_cycles (float_of_int grand); "100.0%" ]);
  t

let attribution_sites_table ?(title = "Stall by access site (heaviest first)")
    ?(limit = 12) ~names attr =
  let grand = Attribution.total attr in
  let t =
    Table.create ~title
      ~header:[ "site"; "structure"; "stall"; "share"; "dominant causes" ]
  in
  List.iter
    (fun (r : Attribution.site_row) ->
      let dominant =
        r.r_causes
        |> List.filteri (fun i _ -> i < 3)
        |> List.map (fun (cause, v) ->
               Printf.sprintf "%s %s" (Attribution.cause_name cause)
                 (pct v r.r_total))
        |> String.concat ", "
      in
      Table.add_row t
        [ Attribution.site_name r.r_site; names r.r_ds;
          Table.fmt_cycles (float_of_int r.r_total); pct r.r_total grand;
          dominant ])
    (Attribution.site_rows ~limit attr);
  t

let fabric_table ?(title = "Fabric") ?over_budget ?(per_ds = [])
    (fs : Cards_net.Fabric.stats) =
  let t = Table.create ~title ~header:[ "counter"; "value" ] in
  let i name v = Table.add_row t [ name; string_of_int v ] in
  let b name v = Table.add_row t [ name; Table.fmt_bytes (float_of_int v) ] in
  let c name v = Table.add_row t [ name; Table.fmt_cycles (float_of_int v) ] in
  i "objects fetched" fs.fetches;
  b "fetched bytes" fs.fetched_bytes;
  (* Per-structure split of the line above; structures that never
     faulted remotely are omitted rather than shown as zero. *)
  List.iter
    (fun (name, bytes) ->
      if bytes > 0 then b (Printf.sprintf "  %s" name) bytes)
    per_ds;
  i "batched requests" fs.batches;
  i "objects in batches" fs.batched_objects;
  i "objects written back" fs.writebacks;
  b "written bytes" fs.written_bytes;
  i "writeback batches" fs.wb_batches;
  c "inbound queueing" fs.queue_in_cycles;
  c "outbound queueing" fs.queue_out_cycles;
  Array.iteri
    (fun qp cycles -> c (Printf.sprintf "  qp%d queueing" qp) cycles)
    fs.qp_queue_cycles;
  (* Fault-injection counters only clutter the table when faults are
     actually configured, so show them only when nonzero. *)
  let nz name v = if v > 0 then i name v in
  nz "faults: transient" fs.faults_transient;
  nz "faults: late" fs.faults_late;
  nz "faults: duplicate" fs.faults_dup;
  nz "failed fetch attempts" fs.failed_fetches;
  nz "reliable-channel fetches" fs.reliable_fetches;
  nz "writeback faults absorbed" fs.wb_faults;
  (match over_budget with
   | Some n -> i "over-budget evictions" n
   | None -> ());
  t

let resilience_table ?(title = "Resilience") ~retries ~timeouts ~escalations
    ~pf_failed ~pf_suppressed ~degrade_steps ~recover_steps ~degrade_level () =
  let t = Table.create ~title ~header:[ "counter"; "value" ] in
  let i name v = Table.add_row t [ name; string_of_int v ] in
  (* All-zero counters still render every row (stable output for
     diffing) but get an explicit headline so a fault-free run reads
     as a statement, not an omission. *)
  if
    retries = 0 && timeouts = 0 && escalations = 0 && pf_failed = 0
    && pf_suppressed = 0 && degrade_steps = 0 && recover_steps = 0
    && degrade_level = 0
  then Table.add_row t [ "(no faults observed)"; "-" ];
  i "demand-fetch retries" retries;
  i "fetch timeouts" timeouts;
  i "reliable-channel escalations" escalations;
  i "prefetch attempts failed" pf_failed;
  i "prefetches suppressed (degraded)" pf_suppressed;
  i "degradation steps" degrade_steps;
  i "recovery steps" recover_steps;
  i "final degradation level" degrade_level;
  t

let metrics_table ?(title = "Epoch metrics") metrics =
  let t =
    Table.create ~title
      ~header:[ "cycle"; "structure"; "resident"; "faults"; "pf issued";
                "pf used"; "accuracy"; "prefetcher"; "switches" ]
  in
  (* Per-interval deltas: remember the previous sample per handle. *)
  let prev : (int, Metrics.sample) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Metrics.sample) ->
      let d_faults, d_issued, d_used =
        match Hashtbl.find_opt prev s.m_ds with
        | Some p ->
          (s.m_remote_faults - p.m_remote_faults,
           s.m_pf_issued - p.m_pf_issued,
           s.m_pf_used - p.m_pf_used)
        | None -> (s.m_remote_faults, s.m_pf_issued, s.m_pf_used)
      in
      Hashtbl.replace prev s.m_ds s;
      let acc =
        if d_issued = 0 then None
        else Some (float_of_int d_used /. float_of_int d_issued)
      in
      Table.add_row t
        [ Table.fmt_cycles (float_of_int s.m_cycle); s.m_name;
          Table.fmt_bytes (float_of_int s.m_resident_bytes);
          string_of_int d_faults; string_of_int d_issued;
          string_of_int d_used; Table.fmt_ratio_opt acc;
          s.m_prefetcher; string_of_int s.m_pf_switches ])
    (Metrics.samples metrics);
  t

(* ---------- what-if causal profile ---------- *)

let whatif_table ?(title = "What-if: virtual speedups (ranked)")
    (rows : (Whatif.prediction * int option) list) =
  let t =
    Table.create ~title
      ~header:[ "scenario"; "what changes"; "predicted"; "speedup";
                "measured"; "err" ]
  in
  let cyc c = Table.fmt_cycles (float_of_int c) in
  List.iter
    (fun ((p : Whatif.prediction), measured) ->
      let m_str, err_str =
        match measured with
        | None -> ("-", "-")
        | Some m ->
          let err =
            if m = 0 then 0.0
            else
              abs_float (float_of_int (p.p_cycles - m)) /. float_of_int m
          in
          (cyc m, Printf.sprintf "%.1f%%" (100.0 *. err))
      in
      Table.add_row t
        [ p.p_scenario.Whatif.sc_id; p.p_scenario.Whatif.sc_label;
          cyc p.p_cycles; Table.fmt_speedup p.p_speedup; m_str; err_str ])
    rows;
  (match rows with
   | (p, _) :: _ ->
     Table.add_row t
       [ "BASELINE"; "measured run"; cyc p.Whatif.p_baseline;
         Table.fmt_speedup 1.0; cyc p.Whatif.p_baseline; "-" ]
   | [] -> ());
  t
