(* Host clocks, summaries, the result record, and the runtime counter
   snapshot every workload shares. *)

module R = Cards_runtime
module F = Cards_net.Fabric
module Attribution = Cards_obs.Attribution
module Profile = Cards_obs.Profile

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> invalid_arg "median: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The work a sample times is deterministic, so other load on the host
   can only slow it down: the fastest sample is the least disturbed. *)
let fastest = function
  | [] -> invalid_arg "fastest: no samples"
  | x :: xs -> List.fold_left min x xs

(* Run [f] until [seconds] of host time have passed, at least once;
   every result with its own wall time, in order.  [after_first] runs,
   untimed, once the first sample is taken. *)
let repeat_for ?(after_first = ignore) ~seconds f =
  let t0 = now () in
  let rec go acc =
    if acc <> [] && now () -. t0 >= seconds then List.rev acc
    else begin
      let sample = timed f in
      if acc = [] then after_first ();
      go (sample :: acc)
    end
  in
  go []

(* Peak resident set of this process so far (VmHWM), in MiB.  Read
   after the first sample: later samples add garbage, so the mark would
   otherwise grow with the number of samples the host's speed allows. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "/proc/self/status has no VmHWM line"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  problems : string list;  (* why [correct] is false *)
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The serving and parallel layers' metrics.  The program workloads do
   not run these layers and report 0 for them. *)
let serve_layers =
  [ ("serve.prepare_ms", "ms"); ("serve.build_ms", "ms");
    ("serve.exec_us_per_req", "us"); ("serve.commit_us_per_req", "us");
    ("serve.drr_us_per_req", "us"); ("serve.drr_rounds", "count");
    ("serve.idle_frac", "ratio"); ("serve.stolen_mcycles", "Mcycles");
    ("serve.faulty_degrade_level", "count");
    ("par.coord_us_per_record", "us"); ("par.speedup_vs_seq", "x") ]

let not_exercised layers = List.map (fun (name, unit) -> m name unit 0.0) layers

let cause_key = function
  | Attribution.Proto -> "proto"
  | Attribution.Wire -> "wire"
  | Attribution.Queue _ -> "queue"
  | Attribution.Pf_wait -> "pf_wait"
  | Attribution.Retry -> "retry"
  | Attribution.Guard_exec -> "guard_exec"
  | Attribution.Trap -> "trap"
  | Attribution.Bookkeeping -> "bookkeeping"

let stall_keys =
  [ "proto"; "wire"; "queue"; "pf_wait"; "retry"; "guard_exec"; "trap";
    "bookkeeping" ]

(* Every counter a runtime exposes after a run.  Two runs of one seed
   must produce equal snapshots, traced or not. *)
let counters rt =
  let st = R.Runtime.stats rt in
  let t = R.Rt_stats.total st in
  let fs = R.Runtime.fabric_stats rt in
  let causes = Attribution.cause_totals (R.Runtime.attribution rt) in
  let stall k =
    List.fold_left
      (fun acc (c, v) -> if cause_key c = k then acc + v else acc)
      0 causes
  in
  [ ("clock", R.Runtime.now rt);
    ("compute", Profile.compute (R.Runtime.profile rt));
    ("guards", t.R.Rt_stats.guards);
    ("guard_hits", t.guard_hits);
    ("remote_faults", t.remote_faults);
    ("clean_faults", t.clean_faults);
    ("evictions", t.evictions);
    ("prefetch_issued", t.prefetch_issued);
    ("prefetch_used", t.prefetch_used);
    ("prefetch_late", t.prefetch_late);
    ("retries", R.Rt_stats.retries st);
    ("escalations", R.Rt_stats.escalations st);
    ("degrade_steps", R.Rt_stats.degrade_steps st) ]
  @ List.map (fun k -> ("stall." ^ k, stall k)) stall_keys
  @ [ ("fetches", fs.F.fetches);
      ("fetched_bytes", fs.fetched_bytes);
      ("batches", fs.batches);
      ("batched_objects", fs.batched_objects);
      ("writebacks", fs.writebacks);
      ("written_bytes", fs.written_bytes);
      ("queue_in", fs.queue_in_cycles);
      ("queue_out", fs.queue_out_cycles);
      ("faults_injected", F.faults_injected fs);
      ("reliable_fetches", fs.reliable_fetches) ]

let sum_counters = function
  | [] -> invalid_arg "sum_counters: no snapshots"
  | c :: rest ->
    List.fold_left
      (fun acc x -> List.map2 (fun (k, a) (_, b) -> (k, a + b)) acc x)
      c rest

(* The runtime and fabric layers' metrics, from one snapshot. *)
let layer_metrics c =
  let g k = float_of_int (List.assoc k c) in
  [ m "runtime.guards" "count" (g "guards");
    m "runtime.guard_hit_rate" "ratio" (ratio (g "guard_hits") (g "guards"));
    m "runtime.remote_faults" "count" (g "remote_faults");
    m "runtime.evictions" "count" (g "evictions");
    m "runtime.prefetch_issued" "count" (g "prefetch_issued");
    m "runtime.prefetch_accuracy" "ratio"
      (ratio (g "prefetch_used") (g "prefetch_issued"));
    m "runtime.prefetch_late" "count" (g "prefetch_late");
    m "runtime.retries" "count" (g "retries");
    m "runtime.escalations" "count" (g "escalations");
    m "runtime.degrade_steps" "count" (g "degrade_steps");
    m "runtime.compute_mcycles" "Mcycles" (g "compute" /. 1e6) ]
  @ List.map
      (fun k -> m ("stall." ^ k ^ "_mcycles") "Mcycles" (g ("stall." ^ k) /. 1e6))
      stall_keys
  @ [ m "net.fetches" "count" (g "fetches");
      m "net.fetched_mb" "MB" (g "fetched_bytes" /. 1e6);
      m "net.batches" "count" (g "batches");
      m "net.objects_per_batch" "ratio" (ratio (g "batched_objects") (g "batches"));
      m "net.writebacks" "count" (g "writebacks");
      m "net.written_mb" "MB" (g "written_bytes" /. 1e6);
      m "net.queue_in_mcycles" "Mcycles" (g "queue_in" /. 1e6);
      m "net.queue_out_mcycles" "Mcycles" (g "queue_out" /. 1e6);
      m "net.faults_injected" "count" (g "faults_injected");
      m "net.reliable_fetches" "count" (g "reliable_fetches") ]
