module Rng = Cards_util.Rng

type fault_kind = Transient | Late | Duplicate

let fault_kind_name = function
  | Transient -> "transient"
  | Late -> "late"
  | Duplicate -> "duplicate"

type fault_config = {
  fault_rate : float;
  fault_seed : int;
  fault_kinds : fault_kind list;
}

let no_faults =
  { fault_rate = 0.0; fault_seed = 1; fault_kinds = [ Transient; Late; Duplicate ] }

type config = {
  proto_cycles : int;
  bytes_per_cycle : float;
  qp_count : int;
  faults : fault_config;
}

(* 25 Gb/s / 8 bits / 2.4 GHz = 1.302 bytes per cycle. *)
let link_bytes_per_cycle = 25.0e9 /. 8.0 /. 2.4e9

(* 59 K total - 4096 B / 1.302 B/c (≈ 3146) ≈ 55.8 K protocol cycles. *)
let default_config =
  { proto_cycles = 55_800; bytes_per_cycle = link_bytes_per_cycle;
    qp_count = 1; faults = no_faults }

(* TrackFM's swap-in path is leaner (no per-DS bookkeeping):
   46 K - 3146 ≈ 42.8 K.  It is also per-object and single-queue — the
   leaner-but-unbatched contrast Fig. 8 depends on. *)
let trackfm_config =
  { proto_cycles = 42_800; bytes_per_cycle = link_bytes_per_cycle;
    qp_count = 1; faults = no_faults }

(* The live counters.  Requests bump them in place and [stats] hands
   out a copy; the interface makes the type private, so no caller can
   write it.  [queue_in_cycles] is never bumped: [stats] reports it as
   the sum of [qp_queue_cycles], so per-QP queueing sums to the total
   by construction. *)
type stats = {
  mutable fetches : int;
  mutable fetched_bytes : int;
  mutable batches : int;
  mutable batched_objects : int;
  mutable writebacks : int;
  mutable written_bytes : int;
  mutable wb_batches : int;
  queue_in_cycles : int;
  mutable queue_out_cycles : int;
  qp_queue_cycles : int array;
  mutable faults_transient : int;
  mutable faults_late : int;
  mutable faults_dup : int;
  mutable failed_fetches : int;
  mutable reliable_fetches : int;
  mutable wb_faults : int;
}

(* Every [min] and [max] here compares cycle counts; the polymorphic
   [Stdlib] ones would make each request call into the runtime. *)
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

type scale = { s_proto : float; s_wire : float }

let unit_scale = { s_proto = 1.0; s_wire = 1.0 }

(* Factor 1.0 short-circuits to the untouched integer: a unit-scaled
   call must be bit-identical to an unscaled one (the whatif identity
   scenario re-executes the baseline through this path and asserts
   equality to the cycle).  Inlined, so the factor read out of a
   [scale] stays unboxed: a call would box it, on every request and
   for every object of a batch. *)
let[@inline] scale_cycles f c =
  if f = 1.0 || c = 0 then c
  else max 0 (int_of_float ((float_of_int c *. f) +. 0.5))

(* A request's outcome is written into records the fabric owns and
   reuses, so a request allocates nothing; the interface makes them
   private, so only the fabric writes them. *)
type transfer = {
  mutable t_start : int;
  mutable t_queued : int;
  mutable t_complete : int;
  mutable t_qp : int;
  mutable t_proto : int;
  mutable t_ser : int;
  mutable t_fault : fault_kind option;
}

type failure = {
  mutable f_start : int;
  mutable f_fail : int;
  mutable f_qp : int;
}

let copy_transfer tr = { tr with t_start = tr.t_start }

(* One record per wire-level request, emitted to the (optional) port
   observer with the FINAL times — a Late or Duplicate fault extends
   the completion before the event is emitted, so an observer never
   sees a provisional timestamp.  [pe_issue] is the caller's [now];
   the per-direction monotonicity guards below make the emitted stream
   nondecreasing in [pe_issue] per direction by construction, which is
   what lets the parallel serving engine merge per-tenant streams with
   a conservative virtual-time barrier. *)
type port_event = {
  pe_dir : [ `In | `Out ];
  pe_issue : int;
  pe_start : int;
  pe_complete : int;
  pe_qp : int;       (* -1 for the outbound direction *)
  pe_count : int;    (* objects carried (batch size; 1 otherwise) *)
  pe_bytes : int;
  pe_ok : bool;      (* false: transient NACK, nothing landed *)
}

type t = {
  cfg : config;
  rng : Rng.t;
  mutable fault_rate : float;     (* live rate; starts at cfg.faults *)
  in_busy_until : int array;      (* one inbound queue pair per slot *)
  mutable out_busy_until : int;
  mutable last_in_now : int;      (* monotonicity guards per direction *)
  mutable last_out_now : int;
  mutable port : (port_event -> unit) option;
  s : stats;
  tr : transfer;                  (* the last request that landed *)
  fl : failure;                   (* the last request NACKed *)
  ok : (transfer, failure) result;   (* [Ok tr], built once *)
  error : (transfer, failure) result; (* [Error fl], built once *)
  one_size : int array;           (* one-slot scratch, so a single fetch
                                     runs through the batch core *)
  mutable completions : int array; (* per-object completion times of
                                      the last request that landed;
                                      doubled to fit a larger batch *)
}

let create cfg =
  if cfg.qp_count < 1 then
    invalid_arg "Fabric.create: qp_count must be at least 1";
  if cfg.faults.fault_rate < 0.0 || cfg.faults.fault_rate > 1.0 then
    invalid_arg "Fabric.create: fault_rate must be within [0, 1]";
  let tr =
    { t_start = 0; t_queued = 0; t_complete = 0; t_qp = 0; t_proto = 0;
      t_ser = 0; t_fault = None }
  and fl = { f_start = 0; f_fail = 0; f_qp = 0 } in
  { cfg;
    rng = Rng.create cfg.faults.fault_seed;
    fault_rate = cfg.faults.fault_rate;
    in_busy_until = Array.make cfg.qp_count 0;
    out_busy_until = 0;
    last_in_now = 0; last_out_now = 0;
    port = None;
    s = { fetches = 0; fetched_bytes = 0; batches = 0; batched_objects = 0;
          writebacks = 0; written_bytes = 0; wb_batches = 0;
          queue_in_cycles = 0; queue_out_cycles = 0;
          qp_queue_cycles = Array.make cfg.qp_count 0;
          faults_transient = 0; faults_late = 0; faults_dup = 0;
          failed_fetches = 0; reliable_fetches = 0; wb_faults = 0 };
    tr; fl; ok = Ok tr; error = Error fl;
    one_size = [| 0 |]; completions = Array.make 16 0 }

let set_port t p = t.port <- p

(* The event is built only when an observer is installed, so an
   unobserved request allocates nothing here. *)
let emit t dir ~now ~start ~complete ~qp ~count ~bytes ~ok =
  match t.port with
  | None -> ()
  | Some f ->
    f { pe_dir = dir; pe_issue = now; pe_start = start; pe_complete = complete;
        pe_qp = qp; pe_count = count; pe_bytes = bytes; pe_ok = ok }

let set_fault_rate t rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Fabric.set_fault_rate: rate must be within [0, 1]";
  t.fault_rate <- rate

let faults_configured t = t.cfg.faults.fault_rate > 0.0

(* Retried transfers re-enter the fabric at a later [now] than the
   attempt they replace; a caller that rewinds the clock between calls
   would instead let a transfer start before the queue state it
   observes existed, silently corrupting busy-until accounting.  Fail
   loudly instead. *)
let check_in_now t now =
  if now < t.last_in_now then
    invalid_arg
      (Printf.sprintf "Fabric: inbound now moved backwards (%d < %d)" now
         t.last_in_now);
  t.last_in_now <- now

let check_out_now t now =
  if now < t.last_out_now then
    invalid_arg
      (Printf.sprintf "Fabric: outbound now moved backwards (%d < %d)" now
         t.last_out_now);
  t.last_out_now <- now

(* One decision per request, drawn from the fabric's own seeded PRNG:
   the schedule is a pure function of the seed and the request
   sequence, so the whole simulation stays deterministic.  At rate 0
   the PRNG is never consulted — the fault-free path is bit-identical
   to a fabric without fault injection. *)
let draw_fault t =
  let fc = t.cfg.faults in
  if t.fault_rate <= 0.0 || fc.fault_kinds = [] then None
  else if Rng.float t.rng 1.0 < t.fault_rate then
    Some (List.nth fc.fault_kinds (Rng.int t.rng (List.length fc.fault_kinds)))
  else None

(* Congestion delay for a late completion: 1-3x the protocol cost, so
   some late transfers sit inside a sane timeout budget and some blow
   past it (exercising both the wait-it-out and abandon-and-retry
   paths in the runtime).  The RNG is drawn before scaling so a scaled
   run consumes the exact same fault schedule as the baseline; the
   delay rides in the wire term (t_ser), so it scales with s_wire. *)
let late_extra t ~scale =
  scale_cycles scale.s_wire (t.cfg.proto_cycles * (1 + Rng.int t.rng 3))

let serialization cfg bytes =
  int_of_float (ceil (float_of_int bytes /. cfg.bytes_per_cycle))

let nominal_fetch_cycles t ~bytes = t.cfg.proto_cycles + serialization t.cfg bytes

(* The one inbound reservation every request takes: the clock guard,
   least-loaded dispatch (the QP that frees up first wins; ties go to
   the lowest index, so dispatch is deterministic) and the wait charged
   to that QP.  The request starts at [max now in_busy_until.(qp)]. *)
let reserve t ~now =
  check_in_now t now;
  let qp = ref 0 in
  for i = 1 to Array.length t.in_busy_until - 1 do
    if t.in_busy_until.(i) < t.in_busy_until.(!qp) then qp := i
  done;
  let q = t.s.qp_queue_cycles in
  q.(!qp) <- q.(!qp) + max 0 (t.in_busy_until.(!qp) - now);
  !qp

(* A transient failure crosses the wire and comes back as a NACK: the
   queue pair is held for the protocol turnaround, nothing lands, and
   the caller decides whether to retry. *)
let nack t ~now ~qp ~proto ~sizes ~count =
  let s = t.s in
  let start = max now t.in_busy_until.(qp) in
  let fail = start + proto in
  t.in_busy_until.(qp) <- fail;
  s.faults_transient <- s.faults_transient + 1;
  s.failed_fetches <- s.failed_fetches + 1;
  let bytes = ref 0 in
  for i = 0 to count - 1 do
    bytes := !bytes + sizes.(i)
  done;
  emit t `In ~now ~start ~complete:fail ~qp ~count ~bytes:!bytes ~ok:false;
  let fl = t.fl in
  fl.f_start <- start;
  fl.f_fail <- fail;
  fl.f_qp <- qp;
  t.error

(* The transfer core every inbound request that lands runs through.
   One request/response pair carries [sizes.(0 .. count-1)]: the
   protocol cost is paid once, and object [i] lands
   ([t.completions.(i)]) as soon as its
   bytes have streamed off the wire behind its predecessors.  The
   protocol cost is per-request work (doorbells, completion polling,
   bookkeeping) that occupies the queue pair, not just latency:
   back-to-back requests serialize behind it, which is what batching
   amortizes.  The fault kinds that still deliver:
   - [Late]: congestion delays the whole response stream, so every
     object lands [late] cycles later and the QP stays tied up until
     the late completion.  The delay rides in [t_ser], so
     [t_queued + t_proto + t_ser = t_complete - now] still holds for
     callers that wait the transfer out.
   - [Duplicate]: the data lands on time, but a duplicated completion
     occupies the QP for another protocol turn — timing only: the
     caller deduplicates by construction (the object is marked resident
     exactly once). *)
let deliver t ~scale ~now ~qp ~proto ~sizes ~count:n fault =
  let s = t.s in
  if n > Array.length t.completions then
    t.completions <- Array.make (max n (2 * Array.length t.completions)) 0;
  let completions = t.completions in
  let start = max now t.in_busy_until.(qp) in
  let late =
    match fault with
    | Some Late -> s.faults_late <- s.faults_late + 1; late_extra t ~scale
    | _ -> 0
  in
  let ser = ref 0 and bytes = ref 0 in
  for i = 0 to n - 1 do
    ser := !ser + scale_cycles scale.s_wire (serialization t.cfg sizes.(i));
    bytes := !bytes + sizes.(i);
    completions.(i) <- start + proto + late + !ser
  done;
  let complete = completions.(n - 1) in
  let drain =
    match fault with
    | Some Duplicate -> s.faults_dup <- s.faults_dup + 1; proto
    | _ -> 0
  in
  t.in_busy_until.(qp) <- complete + drain;
  s.fetches <- s.fetches + n;
  s.fetched_bytes <- s.fetched_bytes + !bytes;
  emit t `In ~now ~start ~complete ~qp ~count:n ~bytes:!bytes ~ok:true;
  let tr = t.tr in
  tr.t_start <- start;
  tr.t_queued <- start - now;
  tr.t_complete <- complete;
  tr.t_qp <- qp;
  tr.t_proto <- proto;
  tr.t_ser <- late + !ser;
  tr.t_fault <- fault;
  tr

(* The request path of both fault-injected entry points: one fault
   decision, then the reservation, then a NACK or the transfer core. *)
let attempt t ~scale ~now ~sizes ~count =
  let fault = draw_fault t in
  let qp = reserve t ~now in
  let proto = scale_cycles scale.s_proto t.cfg.proto_cycles in
  match fault with
  | Some Transient -> nack t ~now ~qp ~proto ~sizes ~count
  | fault ->
    ignore (deliver t ~scale ~now ~qp ~proto ~sizes ~count fault);
    t.ok

let fetch_attempt t ~scale ~now ~bytes =
  t.one_size.(0) <- bytes;
  attempt t ~scale ~now ~sizes:t.one_size ~count:1

let fetch_many_attempt t ~scale ~now ~sizes ~count =
  if count < 1 || count > Array.length sizes then
    invalid_arg "Fabric.fetch_many_attempt: empty batch or count past sizes";
  let r = attempt t ~scale ~now ~sizes ~count in
  (match r with
   | Ok _ ->
     t.s.batches <- t.s.batches + 1;
     t.s.batched_objects <- t.s.batched_objects + count
   | Error _ -> ());
  r

let completions t = t.completions

(* Escalation path after retries are exhausted: a heavyweight reliable
   channel (think RC send with end-to-end acknowledgement instead of
   one-sided reads) that pays the protocol cost twice and never
   faults.  Guarantees forward progress at any fault rate. *)
let fetch_reliable t ~scale ~now ~bytes =
  let qp = reserve t ~now in
  t.one_size.(0) <- bytes;
  t.s.reliable_fetches <- t.s.reliable_fetches + 1;
  deliver t ~scale ~now ~qp
    ~proto:(2 * scale_cycles scale.s_proto t.cfg.proto_cycles)
    ~sizes:t.one_size ~count:1 None

(* Writeback faults never reach the caller: posted writes are
   asynchronous, so the fabric absorbs the fault by re-posting (or
   draining the duplicate) itself — the outbound direction is simply
   occupied longer, which future evictions queue behind. *)
let wb_fault_extra t =
  match draw_fault t with
  | None -> 0
  | Some k ->
    t.s.wb_faults <- t.s.wb_faults + 1;
    (match k with
     | Transient -> t.cfg.proto_cycles (* NACKed posting, re-posted *)
     | Late -> late_extra t ~scale:unit_scale
     | Duplicate -> t.cfg.proto_cycles (* duplicate ack drained *))

(* The one posting path for writebacks.  Writebacks are posted writes:
   the CPU never waits for them, but the request still crosses the
   wire, so the outbound direction is occupied for the full protocol +
   serialization time — the same cost structure as a fetch, just
   asynchronous (DESIGN.md §fabric). *)
let post t ~now ~count ~bytes =
  check_out_now t now;
  let s = t.s in
  let start = max now t.out_busy_until in
  s.queue_out_cycles <- s.queue_out_cycles + (start - now);
  t.out_busy_until <-
    start + t.cfg.proto_cycles + serialization t.cfg bytes + wb_fault_extra t;
  s.writebacks <- s.writebacks + count;
  s.written_bytes <- s.written_bytes + bytes;
  emit t `Out ~now ~start ~complete:t.out_busy_until ~qp:(-1) ~count ~bytes
    ~ok:true

let writeback t ~now ~bytes = post t ~now ~count:1 ~bytes

let writeback_many t ~now ~count ~bytes =
  if count < 1 then invalid_arg "Fabric.writeback_many: empty batch";
  post t ~now ~count ~bytes;
  t.s.wb_batches <- t.s.wb_batches + 1

let inbound_busy_until t =
  Array.fold_left min t.in_busy_until.(0) t.in_busy_until

let outbound_busy_until t = t.out_busy_until

let stats t =
  { t.s with
    queue_in_cycles = Array.fold_left ( + ) 0 t.s.qp_queue_cycles;
    qp_queue_cycles = Array.copy t.s.qp_queue_cycles }

let add_stats (a : stats) (b : stats) =
  let qp =
    let la = Array.length a.qp_queue_cycles
    and lb = Array.length b.qp_queue_cycles in
    Array.init (max la lb) (fun i ->
        (if i < la then a.qp_queue_cycles.(i) else 0)
        + (if i < lb then b.qp_queue_cycles.(i) else 0))
  in
  { fetches = a.fetches + b.fetches;
    fetched_bytes = a.fetched_bytes + b.fetched_bytes;
    batches = a.batches + b.batches;
    batched_objects = a.batched_objects + b.batched_objects;
    writebacks = a.writebacks + b.writebacks;
    written_bytes = a.written_bytes + b.written_bytes;
    wb_batches = a.wb_batches + b.wb_batches;
    queue_in_cycles = a.queue_in_cycles + b.queue_in_cycles;
    queue_out_cycles = a.queue_out_cycles + b.queue_out_cycles;
    qp_queue_cycles = qp;
    faults_transient = a.faults_transient + b.faults_transient;
    faults_late = a.faults_late + b.faults_late;
    faults_dup = a.faults_dup + b.faults_dup;
    failed_fetches = a.failed_fetches + b.failed_fetches;
    reliable_fetches = a.reliable_fetches + b.reliable_fetches;
    wb_faults = a.wb_faults + b.wb_faults }

let faults_injected (s : stats) =
  s.faults_transient + s.faults_late + s.faults_dup
