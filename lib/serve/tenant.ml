module P = Cards.Pipeline
module R = Cards_runtime.Runtime
module M = Cards_interp.Machine
module F = Cards_net.Fabric
module Stats = Cards_util.Stats
module Attribution = Cards_obs.Attribution
module Profile = Cards_obs.Profile

type spec = {
  name : string;
  source : string;
  seed : int;
  requests : int;
  mean_gap : float;
  sample : Cards_util.Rng.t -> Loadgen.request;
  fault_rate : float;
}

type record = { req : Loadgen.request; ret : int; cost : int }

(* The mutable state splits cleanly into an execution half and an
   accounting half, which is what lets the parallel engine run them on
   different domains: [exec_next] (execution side) touches only the
   runtime/session and [exec_ix]; [commit] (coordinator side) touches
   only the serving-clock accounting ([next_ix] onward).  The two
   halves synchronize through the engine's claim flags and mailboxes,
   never through this record. *)
type t = {
  spec : spec;
  compiled : P.compiled;
  rt : R.t;
  session : M.session;
  handles : (int, int) Hashtbl.t;
  arrivals : Loadgen.arrival array;
  mutable exec_ix : int;          (* requests executed (execution side) *)
  mutable next_ix : int;          (* requests committed (coordinator side) *)
  mutable served : int;
  mutable setup_cycles : int;
  mutable service_cycles : int;
  mutable stall_cycles : int;
  mutable wait_cycles : int;
  lat : Stats.t;
  mutable records_rev : record list;
  mutable out_rev : string list;
  pinned_granted : int;
  events_rev : F.port_event list ref;  (* local-time wire events, when traced *)
}

(* A transformed function's appended handle parameters, resolved
   through the compiler's handle plan: ds_init each sid once per
   runtime (the driver is main's surrogate — main itself never runs
   in a session), then reuse the handle for every later call. *)
let handles_for tbl rt compiled fname =
  match List.assoc_opt fname compiled.P.fn_arg_sids with
  | None -> failwith (Printf.sprintf "serving source has no %s()" fname)
  | Some sids ->
    List.map
      (fun sid ->
        if sid < 0 then
          failwith
            (Printf.sprintf "%s: handle plan has an uncovered argnode" fname);
        match Hashtbl.find_opt tbl sid with
        | Some h -> h
        | None ->
          let h = R.ds_init rt ~sid in
          Hashtbl.replace tbl sid h;
          h)
      sids

(* Footprint probe: run setup() against a scratch all-remotable
   runtime and read back per-structure allocated bytes — the online
   measurement the Max-Use knapsack plans against. *)
let probe_footprint ~(base : R.config) ~engine compiled =
  let cfg =
    { base with
      R.policy = Cards_runtime.Policy.All_remotable;
      namespace = "";
      fabric_config = { base.fabric_config with F.faults = F.no_faults } }
  in
  let rt = R.create cfg compiled.P.infos in
  let s = M.session ~engine compiled.P.instrumented rt in
  let tbl = Hashtbl.create 8 in
  ignore (M.call s "setup" (handles_for tbl rt compiled "setup"));
  let bytes = Array.make (Array.length compiled.P.infos) 0 in
  List.iter
    (fun (r : R.ds_report) ->
      if r.r_sid >= 0 && r.r_sid < Array.length bytes then
        bytes.(r.r_sid) <- bytes.(r.r_sid) + r.r_bytes)
    (R.report rt);
  bytes

(* Creation splits at the compile boundary: [prepare] runs the
   compiler (which keeps process-global pass counters, so it must stay
   on one domain), while [build] does only tenant-private work — probe,
   knapsack, runtime, setup(), arrivals — and is safe to run on any
   domain. *)
type prep = {
  p_spec : spec;
  p_base : R.config;
  p_engine : M.engine;
  p_pin_share : int;
  p_trace : bool;
  p_compiled : P.compiled;
}

let prepare ?(trace_fabric = false) ~(base : R.config) ~engine ~pin_share spec =
  { p_spec = spec; p_base = base; p_engine = engine;
    p_pin_share = pin_share; p_trace = trace_fabric;
    p_compiled = P.compile_source spec.source }

let build_probed (p : prep) bytes =
  let spec = p.p_spec and base = p.p_base and compiled = p.p_compiled in
  let policy, pinned_granted =
    Kbudget.plan ~infos:compiled.P.infos ~bytes ~budget:p.p_pin_share
  in
  let cfg =
    { base with
      R.policy;
      namespace = spec.name;
      fabric_config =
        { base.fabric_config with
          F.faults =
            { F.no_faults with
              F.fault_rate = spec.fault_rate;
              fault_seed = spec.seed lxor 0x5e4e } } }
  in
  let rt = R.create cfg compiled.P.infos in
  let events_rev = ref [] in
  if p.p_trace then
    R.set_fabric_port rt (Some (fun ev -> events_rev := ev :: !events_rev));
  let session = M.session ~engine:p.p_engine compiled.P.instrumented rt in
  let handles = Hashtbl.create 8 in
  let r = M.call session "setup" (handles_for handles rt compiled "setup") in
  let arrivals =
    Array.of_list
      (Loadgen.arrivals ~seed:spec.seed ~n:spec.requests
         ~mean_gap:spec.mean_gap ~sample:spec.sample)
  in
  { spec; compiled; rt; session; handles; arrivals;
    exec_ix = 0; next_ix = 0; served = 0;
    setup_cycles = r.M.cycles; service_cycles = 0; stall_cycles = 0;
    wait_cycles = 0; lat = Stats.create (); records_rev = [];
    out_rev = []; pinned_granted; events_rev }

let build (p : prep) =
  build_probed p
    (probe_footprint ~base:p.p_base ~engine:p.p_engine p.p_compiled)

(* A mix repeats few programs, so tenants with the same source share
   one compiled program and one footprint probe: the probe runs on a
   scratch runtime under the mix's common base config and engine, so
   it reads the same bytes for every tenant of that source.  Compiles
   stay on the calling domain; the probes and the builds fan out over
   [domains], each after [perturb] of its index. *)
let build_many ?(trace_fabric = false) ?(perturb = ignore) ~domains ~base
    ~engine ~pin_share specs =
  let mapi f xs =
    Cards_util.Pool.map ~domains
      (fun k -> perturb k; f k xs.(k))
      (Array.init (Array.length xs) Fun.id)
  in
  let first = Hashtbl.create 4 in
  let programs = ref [] in
  let program_of =
    Array.map
      (fun spec ->
        match Hashtbl.find_opt first spec.source with
        | Some k -> k
        | None ->
          let k = Hashtbl.length first in
          Hashtbl.add first spec.source k;
          programs := P.compile_source spec.source :: !programs;
          k)
      specs
  in
  let programs = Array.of_list (List.rev !programs) in
  let footprints = mapi (fun _ -> probe_footprint ~base ~engine) programs in
  mapi
    (fun i spec ->
      let k = program_of.(i) in
      build_probed
        { p_spec = spec; p_base = base; p_engine = engine;
          p_pin_share = pin_share; p_trace = trace_fabric;
          p_compiled = programs.(k) }
        footprints.(k))
    specs

let finished t = t.next_ix >= Array.length t.arrivals

let pending t ~now =
  t.next_ix < Array.length t.arrivals && t.arrivals.(t.next_ix).Loadgen.at <= now

let next_arrival t =
  if finished t then None else Some t.arrivals.(t.next_ix).Loadgen.at

type exec = {
  e_ix : int;
  e_ret : int;
  e_cost : int;
  e_stall : int;
  e_out : string list;
}

let exec_remaining t = Array.length t.arrivals - t.exec_ix

(* Execute the next request against the tenant's private runtime.
   Deliberately independent of the serving clock: the result (return
   value, cost, output, fabric effects) is a pure function of the
   tenant's own request stream, which is the PR 9 isolation invariant
   — and exactly what lets any domain run it ahead of the serving
   clock.  Per-request cost ties to the PR 3 ledger: cost = Δcompute +
   Δattribution, checked on every single request. *)
let exec_next t =
  let ix = t.exec_ix in
  let arr = t.arrivals.(ix) in
  let { Loadgen.op; a; b } = arr.Loadgen.req in
  let att0 = Attribution.total (R.attribution t.rt) in
  let comp0 = Profile.compute (R.profile t.rt) in
  let r =
    M.call t.session "req" ([ op; a; b ] @ handles_for t.handles t.rt t.compiled "req")
  in
  let stall = Attribution.total (R.attribution t.rt) - att0 in
  let compute = Profile.compute (R.profile t.rt) - comp0 in
  if r.M.cycles <> stall + compute then
    failwith
      (Printf.sprintf
         "%s: request cost %d cycles but the ledger decomposes it as \
          %d compute + %d stall"
         t.spec.name r.M.cycles compute stall);
  t.exec_ix <- ix + 1;
  { e_ix = ix; e_ret = r.M.ret; e_cost = r.M.cycles; e_stall = stall;
    e_out = r.M.output }

(* Commit an executed request at serving time [now]: the caller owns
   the serving clock, we fold the record into the tenant's accounting
   and return the cost so the scheduler can be charged.  Records must
   commit in execution order — the engine's per-tenant FIFO guarantees
   it, and we check it anyway. *)
let commit t ~now (e : exec) =
  if e.e_ix <> t.next_ix then
    failwith
      (Printf.sprintf "%s: commit out of order (record %d at slot %d)"
         t.spec.name e.e_ix t.next_ix);
  let arr = t.arrivals.(t.next_ix) in
  let wait = now - arr.Loadgen.at in
  t.next_ix <- t.next_ix + 1;
  t.served <- t.served + 1;
  t.service_cycles <- t.service_cycles + e.e_cost;
  t.stall_cycles <- t.stall_cycles + e.e_stall;
  t.wait_cycles <- t.wait_cycles + wait;
  Stats.add_int t.lat (wait + e.e_cost);
  t.records_rev <-
    { req = arr.Loadgen.req; ret = e.e_ret; cost = e.e_cost } :: t.records_rev;
  t.out_rev <- List.rev_append e.e_out t.out_rev;
  e.e_cost

(* Serve the oldest pending request: execute and commit in one step
   (the sequential path). *)
let serve_next t ~now = commit t ~now (exec_next t)

let name t = t.spec.name
let served t = t.served
let setup_cycles t = t.setup_cycles
let service_cycles t = t.service_cycles
let stall_cycles t = t.stall_cycles
let wait_cycles t = t.wait_cycles
let latency t = t.lat
let pinned_granted t = t.pinned_granted
let records t = List.rev t.records_rev
let output t = List.rev t.out_rev
let fabric_stats t = R.fabric_stats t.rt
let degrade_level t = R.degrade_level t.rt
let runtime t = t.rt
let compiled t = t.compiled
let fabric_events t = List.rev !(t.events_rev)
