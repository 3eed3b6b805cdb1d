module Fabric = Cards_net.Fabric
module Sink = Cards_obs.Sink
module Profile = Cards_obs.Profile
module Metrics = Cards_obs.Metrics
module Attribution = Cards_obs.Attribution
module Span = Cards_obs.Span
module Recorder = Cards_obs.Recorder
module Reporter = Cards_obs.Reporter

type prefetch_mode = Pf_none | Pf_stride_only | Pf_per_class | Pf_adaptive

type config = {
  policy : Policy.t;
  k : float;
  local_bytes : int;
  remotable_bytes : int;
  cost : Cost.t;
  fabric_config : Fabric.config;
  prefetch_mode : prefetch_mode;
  prefetch_depth : int;
  (* Layout-aware sizing: when set, each structure's window depth is
     derived from this wire budget in bytes and its own object size
     ([budget / obj_size], clamped to [1, 64]), so a factorized hot
     pool earns a proportionally deeper run.  [None] keeps the fixed
     object-count [prefetch_depth] for every structure. *)
  prefetch_bytes : int option;
  batching : bool;
  (* Fault survival (only exercised when the fabric injects faults):
     a demand fetch is retried after a transient failure or a
     timed-out late completion, waiting an exponentially growing
     backoff between attempts; once [retry_max] retries are spent, it
     escalates to the fabric's reliable channel, which cannot fault. *)
  retry_max : int;
  (* What-if execution knobs (Whatif.exec -> config via
     [whatif_config]): scaled fabric costs for inbound fetches,
     globally and per structure (static name, resolved at ds_init), and
     instant prefetch arrival.  All timing-only: outputs are invariant
     under any setting, which is what lets the whatif bench validate
     predictions against re-executed reality. *)
  cost_scale : Fabric.scale;
  ds_cost_scales : (string * Fabric.scale) list;
  pf_instant : bool;              (* prefetches land at issue time *)
  (* Tenant handle namespace (the serving layer, lib/serve): a
     non-empty namespace prefixes every structure name this runtime
     reports ("tenant/name#sid"), so per-tenant stats, attribution
     rows and exports stay collision-free when a serving driver
     aggregates many tenant runtimes into one view.  Handles remain
     runtime-local: a pointer can never cross namespaces because the
     handle bits only resolve against this runtime's table. *)
  namespace : string;
}

let default_config =
  { policy = Policy.Linear;
    k = 1.0;
    local_bytes = 64 * 1024 * 1024;
    remotable_bytes = 8 * 1024 * 1024;
    cost = Cost.cards;
    (* Two inbound QPs: demand faults dispatch least-loaded, so a miss
       is not queued behind a streaming prefetch window. *)
    fabric_config = { Fabric.default_config with qp_count = 2 };
    prefetch_mode = Pf_per_class;
    prefetch_depth = 4;
    prefetch_bytes = None;
    batching = true;
    retry_max = 4;
    cost_scale = Fabric.unit_scale;
    ds_cost_scales = [];
    pf_instant = false;
    namespace = "" }

(* Map an executable what-if scenario onto a perturbed copy of [cfg],
   so a prediction made from the span graph can be checked by actually
   re-running the program under the changed parameter.  [None] means
   the scenario has no runtime knob.  Per-structure scales are keyed
   by static name and *prepended*, so a scenario overrides any
   existing entry for the same structure. *)
let whatif_config cfg (exec : Cards_obs.Whatif.exec) =
  match exec with
  | Cards_obs.Whatif.Exec_none -> None
  | Cards_obs.Whatif.Exec_scale { eds; proto; wire } ->
    let scale = { Fabric.s_proto = proto; s_wire = wire } in
    (match eds with
     | None -> Some { cfg with cost_scale = scale }
     | Some name ->
       Some { cfg with ds_cost_scales = (name, scale) :: cfg.ds_cost_scales })
  | Cards_obs.Whatif.Exec_qp n ->
    Some { cfg with fabric_config = { cfg.fabric_config with Fabric.qp_count = n } }
  | Cards_obs.Whatif.Exec_fault_free ->
    Some
      { cfg with
        fabric_config = { cfg.fabric_config with Fabric.faults = Fabric.no_faults } }
  | Cards_obs.Whatif.Exec_instant_prefetch -> Some { cfg with pf_instant = true }

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* Object state bits. *)
let b_resident = 1
let b_dirty = 2
let b_ref = 4
let b_prefetched = 8
let b_inflight = 16
let b_inclock = 32

let segv_penalty = 2_000 (* trap + handler on the unguarded fallback path *)

type ds = {
  handle : int;
  info : Static_info.t;
  obj_shift : int;
  mutable pinned : bool;
      (* Pinned structures allocate *untagged* pointers straight out of
         local memory: the custody check (shr+jz, Fig. 3) falls through
         in 3 cycles, which is how per-access guard elision works.
         When the structure stops fitting, the runtime overrides the
         hint ([pinned] flips to false) and *future* allocations are
         tagged/remotable; already-issued untagged pointers stay local
         forever, as they must. *)
  mutable pinned_bytes : int;     (* untagged bytes issued while pinned *)
  mutable resident_bytes : int;   (* bytes currently in the remotable cache *)
  mutable data : Bytes.t;
  mutable pool_used : int;
  mutable objs : int array;       (* state flags per object *)
  mutable arrivals : int array;   (* completion time while in flight *)
  mutable pf : Prefetcher.t option;
  pf_scan : Prefetcher.targets -> int -> unit;
      (* the greedy prefetcher's pointer scan of one object, built once *)
  pf_room : bool;
      (* the remotable cache can hold this structure's prefetch window *)
  (* Adaptive prefetch selection (§4.2: "standard prefetching metrics,
     such as accuracy and coverage, are used to evaluate the
     effectiveness of each prefetching policy"): per-epoch counters and
     the list of prefetchers still worth trying. *)
  mutable pf_candidates : Static_info.prefetch_class list;
  pf_order : Static_info.prefetch_class list;
      (* full candidate cycle, for re-exploration after a cool-down *)
  mutable pf_cooldown : int;      (* epochs to stay off before retrying *)
  mutable epoch_accesses : int;
  mutable epoch_issued : int;
  mutable epoch_used : int;
  mutable epoch_faults : int;
  mutable pf_switches : int;
  scale : Fabric.scale;           (* what-if cost scale, fixed at init *)
  st : Rt_stats.ds;
  prof : Profile.buckets;         (* fetch latencies + pf-hidden estimate *)
}

(* A FIFO of (handle, object) pairs: two int arrays whose length is a
   power of two, doubled when full. *)
type ring = {
  mutable rh : int array;
  mutable ro : int array;
  mutable head : int;
  mutable len : int;
}

let ring_push q h o =
  let cap = Array.length q.rh in
  if q.len = cap then begin
    let rh = Array.make (2 * cap) 0 and ro = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      let j = (q.head + i) land (cap - 1) in
      rh.(i) <- q.rh.(j);
      ro.(i) <- q.ro.(j)
    done;
    q.rh <- rh;
    q.ro <- ro;
    q.head <- 0
  end;
  let j = (q.head + q.len) land (Array.length q.rh - 1) in
  q.rh.(j) <- h;
  q.ro.(j) <- o;
  q.len <- q.len + 1

(* Drop the oldest entry and return its slot, which stays readable
   until the next push. *)
let ring_pop q =
  let j = q.head in
  q.head <- (j + 1) land (Array.length q.rh - 1);
  q.len <- q.len - 1;
  j

type clock = { mutable cycles : int }

type site = {
  mutable site_fn : string;
  mutable site_block : int;
  mutable site_instr : int;
}

type t = {
  cfg : config;
  pinned_budget : int;
  clock : clock;
  fabric : Fabric.t;
  infos : Static_info.t array;
  pref : bool array;              (* per sid: pinned preference *)
  mutable dss : ds option array;  (* handle h's structure at index h:
                                     handles are issued densely from 1
                                     and never reused, so [None] marks
                                     handle 0 (unmanaged) and the slots
                                     past the last issued one *)
  mutable n_ds : int;             (* handles issued so far *)
  mutable unmanaged_data : Bytes.t;
  mutable unmanaged_used : int;
  mutable pinned_used : int;
  mutable remotable_used : int;
  clockq : ring;                  (* CLOCK over remotable residents *)
  pf_targets : Prefetcher.targets; (* one prefetcher call's candidates *)
  mutable pf_sizes : int array;   (* a batch's object sizes, grown to the
                                     largest batch *)
  (* Graceful degradation: a sliding window of recent transfer
     outcomes (1 byte each: did the attempt fault?).  When the
     observed fault rate over the window crosses the degrade
     threshold, the prefetch window narrows one step (effective depth
     halves); when the fabric recovers it re-widens.  All dormant —
     zero cost and zero behaviour change — unless the fabric was
     created with a nonzero fault rate ([fault_accounting]). *)
  fault_accounting : bool;
  fw : Bytes.t;                   (* outcome ring, [fault_window] slots *)
  mutable fw_len : int;
  mutable fw_pos : int;
  mutable fw_faults : int;
  mutable degrade : int;          (* 0 = full prefetch width *)
  mutable degrade_cooldown : int; (* outcomes to wait between steps *)
  stats : Rt_stats.t;
  unmanaged_st : Rt_stats.ds;     (* the stats bucket of handle 0 *)
  obs : Sink.t;
  sampling : bool;                (* [Sink.sampling obs], fixed at create *)
  prof : Profile.t;
  attr : Attribution.t;
  queue_causes : Attribution.cause array;
      (* [Queue qp] for every queue pair, built once: a constructor
         with an argument would be allocated at every charge *)
  (* Current access site (function, block, instruction), written by
     the interpreter before each runtime-entering instruction so stall
     charges land on the instruction that paid them.  Direct API users
     (benches, tests) stay on [Attribution.unknown_site]. *)
  site : site;
  (* Causal span layer.  [spans] is the sink's collector, cached so
     every hook is one [match] on an immutable field — [None] means
     spans are off and the hook is a no-op costing one branch, which
     is how observability off stays the seed fast path.  [cur_span] is
     the id of the current access's span (demand completion, settle,
     or timely hit), the [E_trigger] parent for any prefetch the
     access sets off; -1 between spanned accesses.  Span recording never
     touches [clock], so spanning on is cycle-identical by
     construction. *)
  spans : Span.collector option;
  mutable cur_span : int;
}

let log2_exact x =
  let rec go p n = if 1 lsl p >= n then p else go (p + 1) n in
  go 3 x

(* Degradation window: judged over the last [fault_window] transfer
   attempts once at least [fault_window_min] are in hand.  Integer
   ratios keep the policy exact and branch-cheap: degrade one step
   above 1/8 observed faults (12.5%), re-widen below 1/32 (3.1%), and
   wait [degrade_cooldown_len] further outcomes between steps so one
   burst cannot slam the window shut and open again. *)
let fault_window = 64
let fault_window_min = 32
let degrade_max = 6
let degrade_cooldown_len = 32

(* Demand retries: the first backoff, doubled per retry up to 64x, and
   the per-attempt budget of a late-faulted completion.  The budget is
   ~2.7x a nominal 4 KiB fetch: legitimate queueing never trips it (the
   timeout only ever engages on late-faulted completions). *)
let retry_backoff_cycles = 4_096
let fetch_timeout_cycles = 150_000

let create ?(obs = Sink.null) cfg infos =
  if cfg.remotable_bytes > cfg.local_bytes then
    fail "remotable region (%d) exceeds local memory (%d)" cfg.remotable_bytes
      cfg.local_bytes;
  Array.iteri
    (fun i (inf : Static_info.t) ->
      if inf.sid <> i then fail "static descriptor %d out of order" inf.sid)
    infos;
  let check_scale what (s : Fabric.scale) =
    let bad f = not (Float.is_finite f) || f < 0.0 in
    if bad s.Fabric.s_proto || bad s.Fabric.s_wire then
      fail "%s: cost scale factors must be finite and non-negative" what
  in
  check_scale "cost_scale" cfg.cost_scale;
  List.iter
    (fun (n, s) -> check_scale ("ds_cost_scales." ^ n) s)
    cfg.ds_cost_scales;
  let fabric = Fabric.create cfg.fabric_config in
  let stats = Rt_stats.create () in
  { cfg;
    pinned_budget = cfg.local_bytes - cfg.remotable_bytes;
    clock = { cycles = 0 };
    fabric;
    infos;
    pref = Policy.pinned_preference cfg.policy ~infos ~k:cfg.k;
    dss = Array.make 16 None;
    n_ds = 0;
    unmanaged_data = Bytes.create 4096;
    unmanaged_used = 0;
    pinned_used = 0;
    remotable_used = 0;
    clockq =
      { rh = Array.make 256 0; ro = Array.make 256 0; head = 0; len = 0 };
    pf_targets = Prefetcher.targets ();
    pf_sizes = Array.make 64 0;
    fault_accounting = Fabric.faults_configured fabric;
    fw = Bytes.make fault_window '\000';
    fw_len = 0;
    fw_pos = 0;
    fw_faults = 0;
    degrade = 0;
    degrade_cooldown = 0;
    stats;
    unmanaged_st = Rt_stats.unmanaged_bucket stats;
    obs;
    sampling = Sink.sampling obs;
    prof = Profile.create ();
    attr = Attribution.create ();
    queue_causes =
      Array.init cfg.fabric_config.Fabric.qp_count (fun qp ->
          Attribution.Queue qp);
    site =
      { site_fn = Attribution.unknown_site.Attribution.s_fn;
        site_block = Attribution.unknown_site.Attribution.s_block;
        site_instr = Attribution.unknown_site.Attribution.s_instr };
    spans = Sink.spans obs;
    cur_span = -1 }

let now t = t.clock.cycles
let clock t = t.clock
let site t = t.site

(* [charge] and [stall] are the only writers of the clock.  [charge] is
   the interpreter's entry point and feeds the profile's compute
   counter; [stall] is every runtime cost: it advances the clock and
   charges the same cycles to one root cause in the ledger, keyed by
   structure and the current access site.  So
   [Profile.compute t.prof + Attribution.total t.attr = now t] holds by
   construction.  Neither counter feeds back into the clock, so
   observed and unobserved runs are cycle-identical.  [charge] writes
   both fields in place rather than calling into [Profile]: the
   decoded engine repeats these two adds inline on every instruction
   (see decode.ml), and [resolve] below charges every access. *)
let charge t c =
  t.clock.cycles <- t.clock.cycles + c;
  t.prof.Profile.p_compute <- t.prof.Profile.p_compute + c

let stall t ~ds cause c =
  t.clock.cycles <- t.clock.cycles + c;
  let s = t.site in
  Attribution.charge t.attr ~ds ~fn:s.site_fn ~block:s.site_block
    ~instr:s.site_instr cause c

(* The structure behind a handle; [None] for handle 0 and handles never
   issued.  It returns the option stored in the table, so it allocates
   nothing.  Both are inlined: the guard and every access look up a
   handle. *)
let[@inline] find_ds t h =
  if h >= 0 && h < Array.length t.dss then t.dss.(h) else None

let[@inline] get_ds t handle =
  match find_ds t handle with
  | Some d -> d
  | None -> fail "bad handle %d" handle

let namespace t = t.cfg.namespace

let ds_name t handle =
  let bare =
    match find_ds t handle with Some d -> d.info.name | None -> "(unmanaged)"
  in
  if t.cfg.namespace = "" then bare else t.cfg.namespace ^ "/" ^ bare

(* Span constructor stamped with the current access site; phase fields
   default to zero so each emission site names only what it explains. *)
let mk_span t ~id ~kind ~parent ?edge ~ds ~obj ~issued ~start ~complete
    ?(queued = 0) ?(proto = 0) ?(wire = 0) ?(retry = 0) ?(pf_wait = 0)
    ?(trap = 0) ?(qp = -1) ~bytes ?fault () =
  { Span.sp_id = id; sp_kind = kind; sp_parent = parent; sp_edge = edge;
    sp_ds = ds; sp_obj = obj; sp_fn = t.site.site_fn;
    sp_block = t.site.site_block; sp_instr = t.site.site_instr;
    sp_issued = issued; sp_start = start;
    sp_complete = complete; sp_queued = queued; sp_proto = proto;
    sp_wire = wire; sp_retry = retry; sp_pf_wait = pf_wait; sp_trap = trap;
    sp_qp = qp; sp_bytes = bytes; sp_fault = fault }

(* A mark (Span.is_mark): a zero-phase root span at the current cycle
   and site.  It takes no sampling decision, so the occasions recorded
   at any span rate are the same with or without marks. *)
let mark t c ~ds kind =
  let now = t.clock.cycles in
  Span.add c
    (mk_span t ~id:(Span.fresh c) ~kind ~parent:(-1) ~ds ~obj:0 ~issued:now
       ~start:now ~complete:now ~bytes:0 ())

(* One-shot post-mortem dump through the sink's reporter; armed by
   [Sink.create ~postmortem:true], consumed by the first trap or
   reliable-channel escalation. *)
let maybe_postmortem t ~reason =
  if Sink.take_postmortem t.obs then
    match Sink.recorder t.obs with
    | Some r ->
      Reporter.text (Sink.reporter t.obs)
        (Recorder.postmortem ~reason ~degrade_level:t.degrade
           ~names:(ds_name t) r)
    | None -> ()

(* ---------- metrics sampling ---------- *)

let pf_name (d : ds) =
  match d.pf with Some p -> Prefetcher.kind_name p | None -> "off"

let sample_all t m =
  let cycle = t.clock.cycles in
  for h = 1 to t.n_ds do
    let d = get_ds t h in
    Metrics.record m
      { Metrics.m_cycle = cycle;
        m_ds = d.handle;
        m_name = d.info.name;
        m_resident_bytes = d.pinned_bytes + d.resident_bytes;
        m_guards = d.st.guards;
        m_guard_hits = d.st.guard_hits;
        m_remote_faults = d.st.remote_faults;
        m_clean_faults = d.st.clean_faults;
        m_pf_issued = d.st.prefetch_issued;
        m_pf_used = d.st.prefetch_used;
        m_pf_late = d.st.prefetch_late;
        m_evictions = d.st.evictions;
        m_fetched_bytes = d.st.fetched_bytes;
        m_prefetcher = pf_name d;
        m_pf_switches = d.pf_switches }
  done;
  Metrics.catch_up m ~now:cycle

(* Callers test [t.sampling] first, so a run without a metrics sink
   never makes the call. *)
let maybe_sample t =
  if Sink.metrics_due t.obs ~now:t.clock.cycles then
    match Sink.metrics t.obs with
    | Some m -> sample_all t m
    | None -> ()

(* ---------- CLOCK eviction over the remotable region ---------- *)

let obj_size (d : ds) = 1 lsl d.obj_shift

let evict_until_fits t =
  let budget = t.cfg.remotable_bytes in
  let q = t.clockq in
  let spins = ref (2 * q.len + 2) in
  (* Eviction bursts coalesce their dirty writebacks into one posted
     request when batching is on; the per-object count/bytes accumulate
     here and hit the fabric once after the scan. *)
  let wb_count = ref 0 in
  let wb_bytes = ref 0 in
  while t.remotable_used > budget && !spins > 0 && q.len > 0 do
    decr spins;
    let j = ring_pop q in
    let h = q.rh.(j) and o = q.ro.(j) in
    let d = get_ds t h in
    let st = if o < Array.length d.objs then d.objs.(o) else 0 in
    let st =
      (* A transfer that already landed is no longer in flight, even if
         nothing touched the object since; otherwise stale prefetches
         would clog the ring as unevictable residents. *)
      if st land b_inflight <> 0 && d.arrivals.(o) <= t.clock.cycles then begin
        d.objs.(o) <- st land lnot b_inflight;
        d.objs.(o)
      end
      else st
    in
    if st land b_inclock = 0 || d.pinned then
      () (* stale entry *)
    else if st land b_inflight <> 0 then
      (* never evict data still on the wire; give it a second chance *)
      ring_push q h o
    else if st land b_ref <> 0 then begin
      d.objs.(o) <- st land lnot b_ref;
      ring_push q h o
    end
    else begin
      (* evict *)
      let dirty = st land b_dirty <> 0 in
      if dirty then begin
        if t.cfg.batching then begin
          incr wb_count;
          wb_bytes := !wb_bytes + obj_size d
        end
        else Fabric.writeback t.fabric ~now:t.clock.cycles ~bytes:(obj_size d)
      end;
      d.objs.(o) <- 0;
      t.remotable_used <- t.remotable_used - obj_size d;
      d.resident_bytes <- d.resident_bytes - obj_size d;
      d.st.evictions <- d.st.evictions + 1
    end
  done;
  if !wb_count > 0 then
    Fabric.writeback_many t.fabric ~now:t.clock.cycles ~count:!wb_count
      ~bytes:!wb_bytes;
  (* With everything left in the ring on the wire (or the spin bound
     exhausted) the cache can stay transiently above budget; count it
     instead of silently ignoring it. *)
  if t.remotable_used > budget then Rt_stats.note_over_budget t.stats

let clock_insert t (d : ds) o =
  if not d.pinned && d.objs.(o) land b_inclock = 0 then begin
    (* New arrivals enter referenced, or the eviction scan triggered by
       their own insertion would reclaim them before first use. *)
    d.objs.(o) <- d.objs.(o) lor b_inclock lor b_ref;
    ring_push t.clockq d.handle o;
    t.remotable_used <- t.remotable_used + obj_size d;
    d.resident_bytes <- d.resident_bytes + obj_size d;
    evict_until_fits t
  end

(* ---------- allocation ---------- *)

let grow_bytes data needed =
  let cur = Bytes.length data in
  if needed <= cur then data
  else begin
    let ncap = ref (max cur 4096) in
    while !ncap < needed do
      ncap := !ncap * 2
    done;
    let nd = Bytes.make !ncap '\000' in
    Bytes.blit data 0 nd 0 cur;
    nd
  end

let grow_objs (d : ds) nobjs =
  let cur = Array.length d.objs in
  if nobjs > cur then begin
    let ncap = max nobjs (max 16 (2 * cur)) in
    let no = Array.make ncap 0 in
    let na = Array.make ncap 0 in
    Array.blit d.objs 0 no 0 cur;
    Array.blit d.arrivals 0 na 0 cur;
    d.objs <- no;
    d.arrivals <- na
  end

let pow2_ceil x =
  let p = ref 8 in
  while !p < x do
    p := !p * 2
  done;
  !p

let align_up x a = (x + a - 1) land lnot (a - 1)

(* Per-structure window depth.  In byte-budget mode the depth is a
   pure function of the structure's (static) object size, so it is as
   deterministic as the fixed depth — smaller objects, deeper runs,
   same bytes in flight. *)
let info_prefetch_depth t (info : Static_info.t) =
  match t.cfg.prefetch_bytes with
  | None -> t.cfg.prefetch_depth
  | Some budget -> max 1 (min 64 (budget / info.Static_info.obj_size))

(* The greedy prefetcher's candidates in object [o] of [d]: every
   tagged pointer stored in it whose target lies inside its structure's
   pool, appended in slot order. *)
let scan_object_pointers t (d : ds) b o =
  let base = o lsl d.obj_shift in
  let stop = min (base + obj_size d) d.pool_used in
  let w = ref base in
  while !w + 8 <= stop do
    let v = Int64.to_int (Bytes.get_int64_le d.data !w) in
    if v > 0 && Addr.is_managed v then begin
      match find_ds t (v lsr Addr.offset_bits) with
      | Some td ->
        let off = Addr.offset_of v in
        if off < td.pool_used then
          Prefetcher.push b td.handle (off lsr td.obj_shift)
      | None -> ()
    end;
    w := !w + 8
  done

let ds_init t ~sid =
  if sid < 0 || sid >= Array.length t.infos then fail "ds_init: bad sid %d" sid;
  let info = t.infos.(sid) in
  let handle = t.n_ds + 1 in
  if handle > Addr.max_handle then fail "too many data structures";
  stall t ~ds:handle Attribution.Bookkeeping t.cfg.cost.ds_init;
  let depth = info_prefetch_depth t info in
  let pf, order =
    match t.cfg.prefetch_mode with
    | Pf_none -> (None, [])
    | Pf_stride_only -> (Some (Prefetcher.stride ~depth), [])
    | Pf_per_class -> (Prefetcher.of_class info.prefetch ~depth, [])
    | Pf_adaptive ->
      (* Start from the compiler's class and keep the other classes as
         fallbacks; [adapt_prefetcher] turns prefetching off once they
         are all spent. *)
      let all = Static_info.[ Stride; Jump_pointer; Greedy_recursive ] in
      let order =
        if info.prefetch = Static_info.No_prefetch then all
        else info.prefetch :: List.filter (fun c -> c <> info.prefetch) all
      in
      (Prefetcher.of_class (List.hd order) ~depth, order)
  in
  let scale =
    match List.assoc_opt info.name t.cfg.ds_cost_scales with
    | Some s -> s
    | None -> t.cfg.cost_scale
  in
  (* Throttle: prefetching into a cache that cannot hold the prefetch
     window alongside the working objects only evicts what the demand
     stream is about to use. *)
  let obj_shift = log2_exact info.obj_size in
  let pf_room = t.cfg.remotable_bytes / (1 lsl obj_shift) >= 2 * (depth + 1) in
  let st = Rt_stats.ds_stats t.stats handle in
  let prof = Profile.buckets t.prof handle in
  let rec d =
    { handle; info; obj_shift; pinned = t.pref.(sid);
      pinned_bytes = 0; resident_bytes = 0;
      data = Bytes.create 0; pool_used = 0; objs = [||]; arrivals = [||];
      pf; pf_scan = (fun b o -> scan_object_pointers t d b o); pf_room;
      pf_candidates = (match order with [] -> [] | _ :: rest -> rest);
      pf_order = order; pf_cooldown = 0;
      epoch_accesses = 0; epoch_issued = 0; epoch_used = 0; epoch_faults = 0;
      pf_switches = 0; scale; st; prof }
  in
  if handle = Array.length t.dss then begin
    let dss = Array.make (2 * handle) None in
    Array.blit t.dss 0 dss 0 handle;
    t.dss <- dss
  end;
  t.dss.(handle) <- Some d;
  t.n_ds <- handle;
  handle

let alloc_unmanaged t ~size =
  let off = align_up t.unmanaged_used 8 in
  t.unmanaged_data <- grow_bytes t.unmanaged_data (off + size);
  t.unmanaged_used <- off + size;
  Addr.unmanaged ~offset:off

let ds_alloc t ~handle ~size =
  stall t ~ds:handle Attribution.Bookkeeping t.cfg.cost.ds_alloc;
  if size <= 0 then fail "dsalloc: non-positive size %d" size;
  if handle = 0 then alloc_unmanaged t ~size
  else begin
    let d = get_ds t handle in
    (* Runtime override of the static hint (paper §4.2): once the
       structure stops fitting in pinned memory, remote its future
       allocations.  Untagged pointers already issued stay local. *)
    if d.pinned && t.pinned_used + size > t.pinned_budget then begin
      d.pinned <- false;
      d.st.demotions <- d.st.demotions + 1
    end;
    if d.pinned then begin
      (* Pinned path: untagged local memory; the custody check will
         fall through on every access. *)
      t.pinned_used <- t.pinned_used + size;
      d.pinned_bytes <- d.pinned_bytes + size;
      alloc_unmanaged t ~size
    end
    else begin
      let osz = obj_size d in
      let align = if size >= osz then osz else pow2_ceil size in
      let off = align_up d.pool_used align in
      let finish = off + size in
      d.data <- grow_bytes d.data finish;
      d.pool_used <- finish;
      let first_obj = off lsr d.obj_shift in
      let last_obj = (finish - 1) lsr d.obj_shift in
      grow_objs d (last_obj + 1);
      for o = first_obj to last_obj do
        if d.objs.(o) land b_resident = 0 then begin
          d.objs.(o) <- d.objs.(o) lor b_resident;
          clock_insert t d o
        end
      done;
      Addr.encode ~ds:handle ~offset:off
    end
  end

let free t addr = ignore t; ignore addr (* pool-based lifetime *)

(* ---------- prefetch issue ---------- *)

(* Would target (h, o) of [d]'s prefetcher actually go on the wire?
   Returns its structure's handle when yes ([h = 0] names [d] itself)
   and 0 when no.  The flag array is grown *before* it is read:
   jump/greedy prefetchers can emit indices beyond the grown portion of
   a target structure's arrays. *)
let prefetch_viable t (d : ds) h o =
  let td = if h = 0 then d else get_ds t h in
  if td.pf_room && (not td.pinned) && o >= 0 && o lsl td.obj_shift < td.pool_used
  then begin
    grow_objs td (o + 1);
    if td.objs.(o) land (b_resident lor b_inflight) = 0 then td.handle else 0
  end
  else 0

(* [span] is the in-flight object's prefetch span (-1 when the issue
   occasion was unsampled): the eventual settle or timely hit will
   claim it as an [E_satisfy] parent. *)
let mark_prefetched t (d : ds) (td : ds) o ~completion ~span =
  (match t.spans with
  | Some c when span >= 0 ->
    Span.note_inflight c ~ds:td.handle ~obj:o ~span
  | _ -> ());
  (* Perfect-prefetch what-if: the transfer still occupies the fabric
     exactly as issued (occupancy and counters unchanged), but the
     data is usable immediately, so settles never wait.  Prefetcher
     decisions are access-pattern-driven, so the fetch sequence — and
     therefore the program output — is unchanged. *)
  let completion = if t.cfg.pf_instant then t.clock.cycles else completion in
  td.objs.(o) <- td.objs.(o) lor b_inflight lor b_prefetched lor b_resident;
  td.arrivals.(o) <- completion;
  td.st.prefetch_issued <- td.st.prefetch_issued + 1;
  (* Adaptation is judged at the *originating* structure — its
     prefetcher made the call, even for cross-structure targets. *)
  d.epoch_issued <- d.epoch_issued + 1;
  clock_insert t td o

(* ---------- fault-rate tracking and graceful degradation ---------- *)

(* Record one transfer-attempt outcome in the sliding window and move
   the degradation level when the observed rate has crossed a
   threshold.  Pure bookkeeping: never touches the clock, so the
   attribution invariants are untouched by construction. *)
let note_fault_outcome t faulted =
  if t.fault_accounting then begin
    let old = Bytes.get_uint8 t.fw t.fw_pos in
    let v = if faulted then 1 else 0 in
    if t.fw_len = fault_window then t.fw_faults <- t.fw_faults - old
    else t.fw_len <- t.fw_len + 1;
    Bytes.set_uint8 t.fw t.fw_pos v;
    t.fw_faults <- t.fw_faults + v;
    t.fw_pos <- (t.fw_pos + 1) mod fault_window;
    if t.degrade_cooldown > 0 then
      t.degrade_cooldown <- t.degrade_cooldown - 1
    else if t.fw_len >= fault_window_min then begin
      let step delta note =
        t.degrade <- t.degrade + delta;
        t.degrade_cooldown <- degrade_cooldown_len;
        note t.stats;
        match t.spans with
        | Some c ->
          mark t c ~ds:0
            (Span.Degrade
               { level = t.degrade;
                 observed_pct = 100 * t.fw_faults / t.fw_len })
        | None -> ()
      in
      if t.fw_faults * 8 > t.fw_len && t.degrade < degrade_max then
        step 1 Rt_stats.note_degrade_step
      else if t.fw_faults * 32 < t.fw_len && t.degrade > 0 then
        step (-1) Rt_stats.note_recover_step
    end
  end

(* Effective prefetch fan-out after degradation: each step halves the
   structure's configured depth (its byte-derived depth in byte-budget
   mode, so degradation also operates on the wire budget); at zero the
   runtime is demand-only until the window recovers. *)
let effective_prefetch_limit t (d : ds) =
  if t.degrade = 0 then max_int
  else info_prefetch_depth t d.info asr t.degrade

(* A prefetch transfer's span carries the fabric occupancy split
   (queued/proto/wire on its QP) for the timeline, but none of it is
   CPU stall — the clock never waited — so prefetch/batch spans are
   excluded from the span/ledger reconciliation (Span.cpu_totals). *)
let prefetch_span t (td : ds) o (tr : Fabric.transfer) =
  match t.spans with
  | Some c when Span.sampled c ->
    let id = Span.fresh c in
    Span.add c
      (mk_span t ~id ~kind:Span.Prefetch ~parent:t.cur_span
         ?edge:(if t.cur_span >= 0 then Some Span.E_trigger else None)
         ~ds:td.handle ~obj:o ~issued:t.clock.cycles ~start:tr.Fabric.t_start
         ~complete:tr.Fabric.t_complete ~queued:tr.Fabric.t_queued
         ~proto:tr.Fabric.t_proto ~wire:tr.Fabric.t_ser ~qp:tr.Fabric.t_qp
         ~bytes:(obj_size td)
         ?fault:(Option.map Fabric.fault_kind_name tr.Fabric.t_fault) ());
    id
  | _ -> -1

(* A single-object prefetch: a batch of one, and every target in
   unbatched mode. *)
let issue_one t (d : ds) (td : ds) o =
  match
    Fabric.fetch_attempt t.fabric ~scale:td.scale ~now:t.clock.cycles
      ~bytes:(obj_size td)
  with
  | Error _ ->
    Rt_stats.note_pf_failed t.stats;
    note_fault_outcome t true
  | Ok tr ->
    td.st.fetched_bytes <- td.st.fetched_bytes + obj_size td;
    note_fault_outcome t (Option.is_some tr.Fabric.t_fault);
    let span = prefetch_span t td o tr in
    mark_prefetched t d td o ~completion:tr.Fabric.t_complete ~span

(* Prefetch issue: everything one prefetcher call produced — unit-stride
   windows and cross-structure fanout alike — goes to the fabric as a
   single request.  In place in [t.pf_targets], targets are filtered
   for viability (in emission order), sorted by (structure, object) so
   adjacent objects serialize back to back, and deduplicated so a
   prefetcher repeating itself cannot double-mark.  A batch of one
   takes the plain fetch path.  When nothing survives the filter —
   the common case, a window already resident — no call leaves this
   module and nothing is allocated.  Prefetches are speculative: a
   NACKed one is simply dropped — the demand path re-fetches the
   object if it is ever needed.  The CPU never waited, so no cycles
   are stalled. *)
let issue_prefetch_batch t (d : ds) ~origin_obj =
  let b = t.pf_targets in
  let a = b.Prefetcher.buf in
  let n = ref 0 in
  for i = 0 to b.Prefetcher.n - 1 do
    let o = a.((2 * i) + 1) in
    let h = prefetch_viable t d a.(2 * i) o in
    if h > 0 then begin
      a.(2 * !n) <- h;
      a.((2 * !n) + 1) <- o;
      incr n
    end
  done;
  b.Prefetcher.n <- !n;
  if !n > 1 then Prefetcher.sort_uniq b;
  let n = b.Prefetcher.n in
  if n = 1 then issue_one t d (get_ds t a.(0)) a.(1)
  else if n > 1 then begin
    if n > Array.length t.pf_sizes then
      t.pf_sizes <- Array.make (max n (2 * Array.length t.pf_sizes)) 0;
    let sizes = t.pf_sizes in
    let bytes = ref 0 in
    for i = 0 to n - 1 do
      let sz = obj_size (get_ds t a.(2 * i)) in
      sizes.(i) <- sz;
      bytes := !bytes + sz
    done;
    match
      Fabric.fetch_many_attempt t.fabric ~scale:d.scale ~now:t.clock.cycles
        ~sizes ~count:n
    with
    | Error _ ->
      (* The whole coalesced request was NACKed: every target dropped. *)
      Rt_stats.note_pf_failed t.stats;
      note_fault_outcome t true
    | Ok tr ->
      (* The fabric's records: read before any later fetch, and the
         marking below only posts writebacks. *)
      let completions = Fabric.completions t.fabric in
      for i = 0 to n - 1 do
        let td = get_ds t a.(2 * i) in
        td.st.fetched_bytes <- td.st.fetched_bytes + sizes.(i)
      done;
      note_fault_outcome t (Option.is_some tr.Fabric.t_fault);
      (* One batch span carrying the request's fabric occupancy, then
         one zero-phase member span per object (the batch already
         accounts for the wire; members exist for the causal chain and
         per-object completion times).  Batch id precedes member ids,
         preserving parent < child. *)
      let batch_sp, sc =
        match t.spans with
        | Some c when Span.sampled c ->
          let id = Span.fresh c in
          Span.add c
            (mk_span t ~id ~kind:Span.Batch ~parent:t.cur_span
               ?edge:(if t.cur_span >= 0 then Some Span.E_trigger else None)
               ~ds:d.handle ~obj:origin_obj ~issued:t.clock.cycles
               ~start:tr.Fabric.t_start ~complete:tr.Fabric.t_complete
               ~queued:tr.Fabric.t_queued ~proto:tr.Fabric.t_proto
               ~wire:tr.Fabric.t_ser ~qp:tr.Fabric.t_qp ~bytes:!bytes
               ?fault:(Option.map Fabric.fault_kind_name tr.Fabric.t_fault)
               ());
          (id, Some c)
        | _ -> (-1, None)
      in
      for i = 0 to n - 1 do
        let td = get_ds t a.(2 * i) and o = a.((2 * i) + 1) in
        let span =
          match sc with
          | Some c ->
            let id = Span.fresh c in
            Span.add c
              (mk_span t ~id ~kind:Span.Prefetch ~parent:batch_sp
                 ~edge:Span.E_member ~ds:td.handle ~obj:o ~issued:t.clock.cycles
                 ~start:tr.Fabric.t_start ~complete:completions.(i)
                 ~qp:tr.Fabric.t_qp ~bytes:(obj_size td) ());
            id
          | None -> -1
        in
        mark_prefetched t d td o ~completion:completions.(i) ~span
      done
  end

let epoch_len = 1024
let epoch_min_issued = 64
let epoch_min_accuracy = 0.25
let epoch_min_signal = 32     (* misses+uses needed to judge coverage *)
let epoch_min_coverage = 0.25
let reexplore_cooldown = 4 (* epochs spent off before retrying *)

let mark_policy_switch t (d : ds) ~from_pf =
  match t.spans with
  | Some c ->
    mark t c ~ds:d.handle (Span.Policy_switch { from_pf; to_pf = pf_name d })
  | None -> ()

(* Adaptive mode (paper: "standard prefetching metrics, such as
   accuracy and coverage, are used to evaluate the effectiveness of
   each prefetching policy"): at each epoch boundary, drop a prefetcher
   that is either inaccurate (issues a lot, little of it used in time)
   or has poor coverage (misses abound while it stays silent or late),
   and move to the next candidate.  When every candidate has failed,
   turn prefetching off for a cool-down and then re-explore — access
   patterns change between phases (a structure built in random order
   may still be chased linearly later), so a verdict is never final. *)
let adapt_prefetcher t (d : ds) =
  d.epoch_accesses <- d.epoch_accesses + 1;
  if
    t.cfg.prefetch_mode = Pf_adaptive
    && d.epoch_accesses >= epoch_len
  then begin
    (match t.spans with
     | Some c -> mark t c ~ds:d.handle Span.Epoch
     | None -> ());
    (match d.pf with
     | None ->
       if d.pf_cooldown > 0 then begin
         d.pf_cooldown <- d.pf_cooldown - 1;
         if d.pf_cooldown = 0 then begin
           match d.pf_order with
           | first :: rest ->
             d.pf <- Prefetcher.of_class first
                       ~depth:(info_prefetch_depth t d.info);
             d.pf_candidates <- rest;
             d.pf_switches <- d.pf_switches + 1;
             mark_policy_switch t d ~from_pf:"off"
           | [] -> ()
         end
       end
     | Some _ ->
       let accuracy =
         if d.epoch_issued = 0 then 1.0
         else float_of_int d.epoch_used /. float_of_int d.epoch_issued
       in
       let signal = d.epoch_faults + d.epoch_used in
       let coverage =
         if signal = 0 then 1.0
         else float_of_int d.epoch_used /. float_of_int signal
       in
       let inaccurate =
         d.epoch_issued >= epoch_min_issued && accuracy < epoch_min_accuracy
       in
       let uncovering =
         signal >= epoch_min_signal && coverage < epoch_min_coverage
       in
       if inaccurate || uncovering then begin
         let from_pf = pf_name d in
         d.pf_switches <- d.pf_switches + 1;
         (match d.pf_candidates with
          | [] ->
            d.pf <- None;
            d.pf_cooldown <- reexplore_cooldown
          | next :: rest ->
            d.pf <- Prefetcher.of_class next
                      ~depth:(info_prefetch_depth t d.info);
            d.pf_candidates <- rest);
         mark_policy_switch t d ~from_pf
       end);
    d.epoch_accesses <- 0;
    d.epoch_issued <- 0;
    d.epoch_used <- 0;
    d.epoch_faults <- 0
  end

let run_prefetcher t (d : ds) ~obj ~missed =
  (match d.pf with
   | None -> ()
   | Some pf ->
     let b = t.pf_targets in
     b.Prefetcher.n <- 0;
     Prefetcher.on_access pf b ~obj ~missed ~scan:d.pf_scan;
     (* Graceful degradation: under a faulty fabric each degradation
        step halves the prefetch fan-out per access, down to
        demand-only at the floor — fewer speculative transfers on a
        link that is failing them.  Recovery re-widens the window.
        The cut keeps the first targets in emission order. *)
     if t.fault_accounting && t.degrade > 0 then begin
       let limit = effective_prefetch_limit t d in
       if b.Prefetcher.n > limit then begin
         Rt_stats.note_pf_suppressed t.stats (b.Prefetcher.n - limit);
         b.Prefetcher.n <- limit
       end
     end;
     if b.Prefetcher.n = 0 then ()
     else if t.cfg.batching then issue_prefetch_batch t d ~origin_obj:obj
     else begin
       (* Each target on its own, judged viable only after the previous
          one was marked in flight. *)
       let a = b.Prefetcher.buf in
       for i = 0 to b.Prefetcher.n - 1 do
         let o = a.((2 * i) + 1) in
         let h = prefetch_viable t d a.(2 * i) o in
         if h > 0 then issue_one t d (get_ds t h) o
       done
     end);
  if t.cfg.prefetch_mode = Pf_adaptive then adapt_prefetcher t d

(* ---------- the guard (cards_deref) ---------- *)

(* Wait for an in-flight object to land; returns true when the data
   was already there (the prefetch was timely). *)
let settle_inflight t (d : ds) o =
  let st = d.objs.(o) in
  if st land b_inflight <> 0 then begin
    let wait = d.arrivals.(o) - t.clock.cycles in
    d.objs.(o) <- st land lnot b_inflight;
    if wait > 0 then begin
      let start = t.clock.cycles in
      stall t ~ds:d.handle Attribution.Pf_wait wait;
      Profile.record_latency d.prof wait;
      d.st.prefetch_late <- d.st.prefetch_late + 1;
      (* The late-settle span owns the whole Pf_wait charge and claims
         the in-flight prefetch span as its [E_satisfy] parent. *)
      (match t.spans with
      | Some c when Span.sampled c ->
        let parent = Span.take_inflight c ~ds:d.handle ~obj:o in
        let id = Span.fresh c in
        Span.add c
          (mk_span t ~id ~kind:Span.Pf_settle ~parent
             ?edge:(if parent >= 0 then Some Span.E_satisfy else None)
             ~ds:d.handle ~obj:o ~issued:start ~start ~complete:t.clock.cycles
             ~pf_wait:wait ~bytes:(obj_size d) ());
        t.cur_span <- id
      | _ -> ());
      false
    end
    else true
  end
  else true

(* The attempt that delivered the data — the first clean one, or the
   reliable channel's after an escalation — waits until its completion
   plus the address-to-object mapping, charged as its root-cause split:
   the fabric guarantees queued + proto + ser = t_complete - now, and
   the mapping rides with the protocol overhead.  [root >= 0] is the
   occasion's sampled completion span. *)
let land_fetch t (d : ds) o (tr : Fabric.transfer) ~start ~root ~span_parent
    ~escalated =
  let queued = tr.Fabric.t_queued in
  let proto = tr.Fabric.t_proto + t.cfg.cost.deref_map in
  stall t ~ds:d.handle t.queue_causes.(tr.Fabric.t_qp) queued;
  stall t ~ds:d.handle Attribution.Proto proto;
  stall t ~ds:d.handle Attribution.Wire tr.Fabric.t_ser;
  (* Latency is end-to-end: failed attempts and backoffs included. *)
  let waited = t.clock.cycles - start in
  Profile.record_latency d.prof waited;
  d.objs.(o) <- d.objs.(o) lor b_resident;
  d.st.remote_faults <- d.st.remote_faults + 1;
  d.epoch_faults <- d.epoch_faults + 1;
  (* The completion span mirrors the three ledger charges above
     field for field: queued -> Queue t_qp, proto + mapping ->
     Proto, ser -> Wire. *)
  (match t.spans with
  | Some c when root >= 0 ->
    Span.add c
      (mk_span t ~id:root
         ~kind:(if escalated then Span.Escalated else Span.Demand)
         ~parent:span_parent
         ?edge:(if span_parent >= 0 then Some Span.E_trap else None)
         ~ds:d.handle ~obj:o ~issued:start ~start:tr.Fabric.t_start
         ~complete:t.clock.cycles ~queued ~proto ~wire:tr.Fabric.t_ser
         ~qp:tr.Fabric.t_qp ~bytes:(obj_size d)
         ?fault:(Option.map Fabric.fault_kind_name tr.Fabric.t_fault) ());
    t.cur_span <- root
  | _ -> ());
  clock_insert t d o

(* Close one failed attempt of a sampled occasion as a Retry span.  The
   clock moved from [issued] only through that attempt's Retry stalls,
   so the span's [retry] is exactly its ledger charge. *)
let retry_span t (d : ds) o ~root ~issued ~fault =
  match t.spans with
  | Some c when root >= 0 && t.clock.cycles > issued ->
    let id = Span.fresh c in
    Span.add c
      (mk_span t ~id ~kind:Span.Retry ~parent:root ~edge:Span.E_retry
         ~ds:d.handle ~obj:o ~issued ~start:issued ~complete:t.clock.cycles
         ~retry:(t.clock.cycles - issued) ~bytes:(obj_size d) ?fault ())
  | _ -> ()

(* A demand miss, one attempt per iteration.  A failed attempt — a
   NACK, or a late completion past [fetch_timeout_cycles] — is stalled,
   noted and backed off, and the cycles it burned land in the ledger's
   Retry cause.  Once [retry_max] retries are spent the reliable
   channel, which cannot fault, guarantees forward progress at any
   fault rate.  [span_parent >= 0] names the trap span whose handler
   issued this fetch (the clean-fault path); the completion span then
   carries an [E_trap] edge. *)
let demand_fetch t (d : ds) o ~span_parent =
  let start = t.clock.cycles in
  let osz = obj_size d in
  (* One sampling decision covers the whole occasion — the completion
     span and every retry child — so chains are never half-recorded.
     The root id is allocated up front: retry spans complete (and are
     added) before the fetch they delayed, but must point forward at
     it, and parent < child keeps the edge relation acyclic. *)
  let root =
    match t.spans with Some c when Span.sampled c -> Span.fresh c | _ -> -1
  in
  let n = ref 0 and issued = ref start and landed = ref false in
  while not !landed do
    (* A failed attempt's fault, for its Retry span; [None] once an
       attempt has delivered the data. *)
    let failed =
      match
        Fabric.fetch_attempt t.fabric ~scale:d.scale ~now:t.clock.cycles
          ~bytes:osz
      with
      | Error f ->
        (* The CPU waited for the NACK: queueing + protocol turnaround. *)
        let c = f.Fabric.f_fail - t.clock.cycles in
        if c > 0 then stall t ~ds:d.handle Attribution.Retry c;
        note_fault_outcome t true;
        Some "transient"
      | Ok tr -> (
        (* The fabric counted this transfer's bytes the moment it
           completed [Ok] — even a late completion abandoned below
           still crossed the wire — so the per-structure mirror bumps
           here, not in [land_fetch]. *)
        d.st.fetched_bytes <- d.st.fetched_bytes + osz;
        match tr.Fabric.t_fault with
        | Some Fabric.Late
          when !n < t.cfg.retry_max
               && tr.Fabric.t_complete - t.clock.cycles > fetch_timeout_cycles ->
          (* Only late-faulted attempts can time out — legitimate
             queueing never trips this, so a healthy loaded fabric
             cannot start a retry storm. *)
          note_fault_outcome t true;
          Rt_stats.note_timeout t.stats;
          stall t ~ds:d.handle Attribution.Retry fetch_timeout_cycles;
          Some "late"
        | kind ->
          note_fault_outcome t (Option.is_some kind);
          land_fetch t d o tr ~start ~root ~span_parent ~escalated:false;
          landed := true;
          None)
    in
    if not !landed then
      if !n >= t.cfg.retry_max then begin
        Rt_stats.note_escalation t.stats;
        retry_span t d o ~root ~issued:!issued ~fault:failed;
        d.st.fetched_bytes <- d.st.fetched_bytes + osz;
        land_fetch t d o
          (Fabric.fetch_reliable t.fabric ~scale:d.scale ~now:t.clock.cycles
             ~bytes:osz)
          ~start ~root ~span_parent ~escalated:true;
        landed := true;
        maybe_postmortem t
          ~reason:"demand fetch escalated to the reliable channel"
      end
      else begin
        let wait = retry_backoff_cycles lsl min !n 6 in
        Rt_stats.note_retry t.stats;
        stall t ~ds:d.handle Attribution.Retry wait;
        retry_span t d o ~root ~issued:!issued ~fault:failed;
        issued := t.clock.cycles;
        incr n
      end
  done

let note_prefetch_hit t (d : ds) o ~timely =
  let st = d.objs.(o) in
  if st land b_prefetched <> 0 then begin
    d.objs.(o) <- st land lnot b_prefetched;
    d.st.prefetch_used <- d.st.prefetch_used + 1;
    (* Adaptation only credits *timely* prefetches: a prediction that
       arrives after the access wanted it hid no latency, however
       accurate it was (greedy one-hop lookahead on a chase is the
       textbook case). *)
    if timely then begin
      d.epoch_used <- d.epoch_used + 1;
      (* Informational bucket: the demand stall this prefetch avoided
         (uncontended fetch + mapping) — what the access would have
         cost as a fault.  Not part of the wall-clock identity. *)
      d.prof.Profile.p_hidden <-
        d.prof.Profile.p_hidden
        + Fabric.nominal_fetch_cycles t.fabric ~bytes:(obj_size d)
        + t.cfg.cost.deref_map;
      (* Zero-stall use: recorded purely for the causal chain (the
         prefetch paid off).  A *late* use settles above instead and
         its mapping was already consumed there. *)
      match t.spans with
      | Some c when Span.sampled c ->
        let parent = Span.take_inflight c ~ds:d.handle ~obj:o in
        let id = Span.fresh c in
        Span.add c
          (mk_span t ~id ~kind:Span.Pf_hit ~parent
             ?edge:(if parent >= 0 then Some Span.E_satisfy else None)
             ~ds:d.handle ~obj:o ~issued:t.clock.cycles ~start:t.clock.cycles
             ~complete:t.clock.cycles ~bytes:(obj_size d) ());
        t.cur_span <- id
      | _ -> ()
    end
  end

let guard t ~write addr =
  let off = addr land Addr.max_offset in
  match find_ds t (addr lsr Addr.offset_bits) with
  | Some d when off < d.pool_used ->
    let o = off lsr d.obj_shift in
    d.st.guards <- d.st.guards + 1;
    (* Each access starts a fresh causal context: [cur_span] is set by
       the demand/settle/hit span this access produces (if any) and
       read by [run_prefetcher] as the E_trigger parent below. *)
    (match t.spans with Some _ -> t.cur_span <- -1 | None -> ());
    let local_cost =
      if write then t.cfg.cost.guard_local_write else t.cfg.cost.guard_local_read
    in
    let st = d.objs.(o) in
    let missed =
      if st land b_resident <> 0 then begin
        if st land (b_inflight lor b_prefetched) <> 0 then begin
          let timely = settle_inflight t d o in
          note_prefetch_hit t d o ~timely
        end;
        stall t ~ds:d.handle Attribution.Guard_exec local_cost;
        d.st.guard_hits <- d.st.guard_hits + 1;
        false
      end
      else begin
        stall t ~ds:d.handle Attribution.Guard_exec local_cost;
        demand_fetch t d o ~span_parent:(-1);
        true
      end
    in
    let bits = if write then b_ref lor b_dirty else b_ref in
    d.objs.(o) <- d.objs.(o) lor bits;
    run_prefetcher t d ~obj:o ~missed;
    if t.sampling then maybe_sample t
  | _ ->
    (* Unmanaged, or a guard hoisted to a loop preheader and run
       speculatively (e.g. ahead of a zero-trip loop) with an address
       the loop would never dereference.  A managed address beyond its
       pool is then benign: pay the custody check and fall through.
       Real accesses still fault on wild pointers (see [resolve]). *)
    stall t ~ds:0 Attribution.Guard_exec t.cfg.cost.guard_unmanaged

let loop_check t addrs =
  (* A base pointer is clean-runnable iff it is untagged: untagged
     allocations are pinned local memory that can never be evicted.
     A tagged base could lose residency mid-loop, so it forces the
     instrumented version. *)
  let ok = ref true in
  List.iter
    (fun addr ->
      stall t ~ds:0 Attribution.Bookkeeping t.cfg.cost.loop_check_per_ds;
      if Addr.is_managed addr then ok := false)
    addrs;
  (match t.spans with
   | Some c -> mark t c ~ds:0 (Span.Loop_version { clean = !ok })
   | None -> ());
  !ok

(* ---------- data accesses ---------- *)

(* Unguarded fallback on a non-resident object: trap, then demand-fetch
   it.  Never called on an object in flight: [mark_prefetched] sets
   [b_resident] with [b_inflight], and eviction skips in-flight
   objects. *)
let clean_fault t (d : ds) o ~write =
  let start = t.clock.cycles in
  let c =
    segv_penalty
    + (if write then t.cfg.cost.guard_local_write
       else t.cfg.cost.guard_local_read)
  in
  stall t ~ds:d.handle Attribution.Trap c;
  (* The trap span owns exactly the Trap charge above; the nested
     demand fetch becomes its child via [E_trap], with the trap id
     allocated first so parent < child holds. *)
  let trap_sp =
    match t.spans with
    | Some col when Span.sampled col ->
      let id = Span.fresh col in
      Span.add col
        (mk_span t ~id ~kind:Span.Trap ~parent:(-1) ~ds:d.handle ~obj:o
           ~issued:start ~start ~complete:t.clock.cycles ~trap:c ~bytes:(obj_size d)
           ());
      id
    | _ -> -1
  in
  demand_fetch t d o ~span_parent:trap_sp;
  d.st.clean_faults <- d.st.clean_faults + 1

(* The one access path, for both engines.  Returns the access's backing
   bytes; its offset in them is [Addr.offset_of addr].  A resident
   object that is not in flight costs one table lookup and one masked
   compare; a non-resident one traps into [clean_fault] and an in-flight
   one settles its prefetch, both before the access is charged.
   Returning the one pointer allocates nothing, where a (bytes, offset)
   pair cost five words per access. *)
let resolve t addr ~write =
  let off = addr land Addr.max_offset in
  let h = addr lsr Addr.offset_bits in
  if h <> 0 then begin
    let d = get_ds t h in
    if off >= d.pool_used then
      fail "wild pointer: ds %d offset %d beyond pool (%d bytes)" h off
        d.pool_used;
    let o = off lsr d.obj_shift in
    d.st.plain_accesses <- d.st.plain_accesses + 1;
    let st = d.objs.(o) in
    if st land (b_resident lor b_inflight) <> b_resident then begin
      if st land b_resident = 0 then clean_fault t d o ~write
      else begin
        let timely = settle_inflight t d o in
        note_prefetch_hit t d o ~timely
      end
    end;
    charge t t.cfg.cost.mem_access;
    let bits = if write then b_ref lor b_dirty else b_ref in
    d.objs.(o) <- d.objs.(o) lor bits;
    if t.sampling then maybe_sample t;
    d.data
  end
  else begin
    if off + 8 > t.unmanaged_used then
      fail "wild unmanaged pointer: offset %d (segment %d bytes)" off
        t.unmanaged_used;
    let u = t.unmanaged_st in
    u.plain_accesses <- u.plain_accesses + 1;
    charge t t.cfg.cost.mem_access;
    if t.sampling then maybe_sample t;
    t.unmanaged_data
  end

let read_i64 t addr =
  let data = resolve t addr ~write:false in
  Int64.to_int (Bytes.get_int64_le data (addr land Addr.max_offset))

let write_i64 t addr v =
  let data = resolve t addr ~write:true in
  Bytes.set_int64_le data (addr land Addr.max_offset) (Int64.of_int v)

let read_f64 t addr =
  let data = resolve t addr ~write:false in
  Int64.float_of_bits (Bytes.get_int64_le data (addr land Addr.max_offset))

let write_f64 t addr v =
  let data = resolve t addr ~write:true in
  Bytes.set_int64_le data (addr land Addr.max_offset) (Int64.bits_of_float v)

(* The float accesses move the value between the heap and a register
   file slot, so no boxed float crosses a call. *)
let read_f64_into t addr (regs : float array) r =
  let data = resolve t addr ~write:false in
  regs.(r) <-
    Int64.float_of_bits (Bytes.get_int64_le data (addr land Addr.max_offset))

let write_f64_from t addr (regs : float array) r =
  let data = resolve t addr ~write:true in
  Bytes.set_int64_le data (addr land Addr.max_offset)
    (Int64.bits_of_float regs.(r))

(* ---------- introspection ---------- *)

type ds_report = {
  r_handle : int;
  r_sid : int;
  r_name : string;
  r_pinned : bool;
  r_bytes : int;
  r_objects : int;
  r_resident_bytes : int;    (* pinned + currently cache-resident *)
  r_prefetcher : string;     (* currently active prefetcher *)
  r_pf_calls : int;          (* accesses the active prefetcher observed *)
  r_pf_targets : int;        (* candidates it emitted (pre-filtering) *)
  r_pf_switches : int;       (* adaptive-mode policy switches *)
  r_stats : Rt_stats.ds;
}

let report t =
  List.init t.n_ds (fun i ->
      let d = get_ds t (i + 1) in
      { r_handle = d.handle;
        r_sid = d.info.sid;
        r_name = d.info.name;
        r_pinned = d.pinned;
        r_bytes = d.pool_used + d.pinned_bytes;
        r_objects = (d.pool_used + obj_size d - 1) lsr d.obj_shift;
        r_resident_bytes = d.pinned_bytes + d.resident_bytes;
        r_prefetcher = pf_name d;
        r_pf_calls = (match d.pf with Some p -> Prefetcher.calls p | None -> 0);
        r_pf_targets =
          (match d.pf with Some p -> Prefetcher.targets_emitted p | None -> 0);
        r_pf_switches = d.pf_switches;
        r_stats = d.st })

let stats t = t.stats
let fabric_stats t = Fabric.stats t.fabric

let set_fabric_port t p = Fabric.set_port t.fabric p
let degrade_level t = t.degrade
let set_fault_rate t rate = Fabric.set_fault_rate t.fabric rate
let pinned_bytes t = t.pinned_used
let pinned_preference t = Array.copy t.pref
let sink t = t.obs
let profile t = t.prof
let attribution t = t.attr
