type ds = {
  mutable guards : int;
  mutable guard_hits : int;
  mutable remote_faults : int;
  mutable clean_faults : int;
  mutable plain_accesses : int;
  mutable prefetch_issued : int;
  mutable prefetch_used : int;
  mutable prefetch_late : int;
  mutable evictions : int;
  mutable demotions : int;
  mutable fetched_bytes : int;
}

let make_ds () =
  { guards = 0; guard_hits = 0; remote_faults = 0; clean_faults = 0;
    plain_accesses = 0; prefetch_issued = 0; prefetch_used = 0;
    prefetch_late = 0; evictions = 0; demotions = 0;
    fetched_bytes = 0 }

type t = {
  per_ds : (int, ds) Hashtbl.t;
  unmanaged : ds;
  mutable over_budget : int;
  (* Resilience counters (fault injection): global, not per structure —
     retry/degradation policy is a runtime-wide response to fabric
     health, not a property of any one structure. *)
  mutable retries : int;
  mutable timeouts : int;
  mutable escalations : int;
  mutable pf_failed : int;
  mutable pf_suppressed : int;
  mutable degrade_steps : int;
  mutable recover_steps : int;
}

let create () =
  { per_ds = Hashtbl.create 32; unmanaged = make_ds (); over_budget = 0;
    retries = 0; timeouts = 0; escalations = 0; pf_failed = 0;
    pf_suppressed = 0; degrade_steps = 0; recover_steps = 0 }

let note_over_budget t = t.over_budget <- t.over_budget + 1
let over_budget t = t.over_budget

let note_retry t = t.retries <- t.retries + 1
let retries t = t.retries
let note_timeout t = t.timeouts <- t.timeouts + 1
let timeouts t = t.timeouts
let note_escalation t = t.escalations <- t.escalations + 1
let escalations t = t.escalations
let note_pf_failed t = t.pf_failed <- t.pf_failed + 1
let pf_failed t = t.pf_failed
let note_pf_suppressed t n = t.pf_suppressed <- t.pf_suppressed + n
let pf_suppressed t = t.pf_suppressed
let note_degrade_step t = t.degrade_steps <- t.degrade_steps + 1
let degrade_steps t = t.degrade_steps
let note_recover_step t = t.recover_steps <- t.recover_steps + 1
let recover_steps t = t.recover_steps

let ds_stats t h =
  match Hashtbl.find_opt t.per_ds h with
  | Some d -> d
  | None ->
    let d = make_ds () in
    Hashtbl.replace t.per_ds h d;
    d

let unmanaged_bucket t = t.unmanaged

let add_into acc (d : ds) =
  acc.guards <- acc.guards + d.guards;
  acc.guard_hits <- acc.guard_hits + d.guard_hits;
  acc.remote_faults <- acc.remote_faults + d.remote_faults;
  acc.clean_faults <- acc.clean_faults + d.clean_faults;
  acc.plain_accesses <- acc.plain_accesses + d.plain_accesses;
  acc.prefetch_issued <- acc.prefetch_issued + d.prefetch_issued;
  acc.prefetch_used <- acc.prefetch_used + d.prefetch_used;
  acc.prefetch_late <- acc.prefetch_late + d.prefetch_late;
  acc.evictions <- acc.evictions + d.evictions;
  acc.demotions <- acc.demotions + d.demotions;
  acc.fetched_bytes <- acc.fetched_bytes + d.fetched_bytes

let total t =
  let acc = make_ds () in
  Hashtbl.iter (fun _ d -> add_into acc d) t.per_ds;
  add_into acc t.unmanaged;
  acc

let prefetch_accuracy d =
  (* No issues = no data, not a perfect prefetcher: a [None] here keeps
     an idle prefetcher from showing a vacuous 100% in reports and from
     misleading accuracy-driven policy decisions. *)
  if d.prefetch_issued = 0 then None
  else Some (float_of_int d.prefetch_used /. float_of_int d.prefetch_issued)

let prefetch_coverage d =
  let denom = d.prefetch_used + d.remote_faults in
  if denom = 0 then 0.0 else float_of_int d.prefetch_used /. float_of_int denom

let handles t =
  List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) t.per_ds [])
