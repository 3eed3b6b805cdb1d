module R = Cards_runtime.Runtime
module M = Cards_interp.Machine
module F = Cards_net.Fabric
module Stats = Cards_util.Stats

type config = {
  quantum : int;
  pin_budget : int;
  base : R.config;
  engine : M.engine;
}

(* The default regime is deliberately memory-tight: 2 MiB local with a
   64 KiB remotable cache and a 256 KiB shared pinned budget, so the
   k-budget planner has real choices to make, unpinned structures pay
   real guard/fabric costs, and a faulty tenant's fabric slice
   actually carries traffic for the fault injector to hit. *)
let default_config =
  { quantum = 20_000;
    pin_budget = 1 lsl 18;
    base =
      { R.default_config with
        local_bytes = 1 lsl 21;
        remotable_bytes = 1 lsl 16 };
    engine = M.Decoded }

type tenant_result = {
  tr_name : string;
  tr_served : int;
  tr_setup_cycles : int;
  tr_service_cycles : int;
  tr_stall_cycles : int;
  tr_wait_cycles : int;
  tr_latency : Stats.t;
  tr_pinned_granted : int;
  tr_records : Tenant.record list;
  tr_output : string list;
  tr_fabric : F.stats;
  tr_degrade_level : int;
  tr_deficit_end : int;
}

type result = {
  tenants : tenant_result array;
  total_cycles : int;
  busy_cycles : int;
  idle_cycles : int;
  granted : int;
  charged : int;
  forfeited : int;
  rounds : int;
  stolen : int array array;
  fabric : F.stats;
  pin_budget : int;
  pin_admitted : int;
}

(* The DRR merge loop, factored out of [run] so the parallel engine
   can replay the {e exact} sequential schedule with [serve] swapped
   from "execute now" to "commit the tenant's next completion record":
   every scheduling decision below depends only on [pending] /
   [next_arrival] (pure functions of the arrival streams and the
   committed prefix) and the measured costs [serve] returns, so the
   merged schedule is a pure function of the specs — bit-identical no
   matter where execution physically happened. *)
let drive (cfg : config) ~(tenants : Tenant.t array) ~(pin_admitted : int)
    ~(serve : int -> now:int -> int) =
  let n = Array.length tenants in
  let drr = Drr.create ~quantum:cfg.quantum n in
  let clock = ref 0 in
  let busy = ref 0 in
  let idle = ref 0 in
  let stolen = Array.make_matrix n n 0 in
  let all_finished () =
    Array.for_all Tenant.finished tenants
  in
  while not (all_finished ()) do
    let pending i = Tenant.pending tenants.(i) ~now:!clock in
    match Drr.next drr ~pending with
    | Some i ->
      let cost = serve i ~now:!clock in
      Drr.charge drr i cost;
      (* Interference matrix: while tenant [i] held the core for
         [cost] cycles, every other tenant with a request in (or
         entering) its queue waited out the overlap — the "who is
         stealing whose cycles" surface. *)
      for j = 0 to n - 1 do
        if j <> i then
          match Tenant.next_arrival tenants.(j) with
          | Some at when at < !clock + cost ->
            stolen.(j).(i) <- stolen.(j).(i) + (!clock + cost - max at !clock)
          | _ -> ()
      done;
      busy := !busy + cost;
      clock := !clock + cost
    | None ->
      (* Nobody has arrived work: hop the clock to the next arrival. *)
      let next =
        Array.fold_left
          (fun acc t ->
            match Tenant.next_arrival t, acc with
            | Some at, None -> Some at
            | Some at, Some x -> Some (min at x)
            | None, _ -> acc)
          None tenants
      in
      (match next with
       | Some at ->
         (* [at > clock]: an arrived request would have made some
            tenant pending. *)
         idle := !idle + (at - !clock);
         clock := at
       | None -> assert false (* all_finished would have ended the loop *))
  done;
  let tenant_result i t =
    { tr_name = Tenant.name t;
      tr_served = Tenant.served t;
      tr_setup_cycles = Tenant.setup_cycles t;
      tr_service_cycles = Tenant.service_cycles t;
      tr_stall_cycles = Tenant.stall_cycles t;
      tr_wait_cycles = Tenant.wait_cycles t;
      tr_latency = Tenant.latency t;
      tr_pinned_granted = Tenant.pinned_granted t;
      tr_records = Tenant.records t;
      tr_output = Tenant.output t;
      tr_fabric = Tenant.fabric_stats t;
      tr_degrade_level = Tenant.degrade_level t;
      tr_deficit_end = Drr.deficit drr i }
  in
  let fabric =
    let acc = ref (Tenant.fabric_stats tenants.(0)) in
    for i = 1 to n - 1 do
      acc := F.add_stats !acc (Tenant.fabric_stats tenants.(i))
    done;
    !acc
  in
  { tenants = Array.mapi tenant_result tenants;
    total_cycles = !clock;
    busy_cycles = !busy;
    idle_cycles = !idle;
    granted = Drr.granted drr;
    charged = Drr.charged drr;
    forfeited = Drr.forfeited drr;
    rounds = Drr.rounds drr;
    stolen;
    fabric;
    pin_budget = cfg.pin_budget;
    pin_admitted }

let sources (specs : Tenant.spec array) =
  let first = Hashtbl.create 4 in
  let program_of =
    Array.map
      (fun (spec : Tenant.spec) ->
        match Hashtbl.find_opt first spec.source with
        | Some k -> k
        | None ->
          let k = Hashtbl.length first in
          Hashtbl.add first spec.source k;
          k)
      specs
  in
  let sources = Array.make (Hashtbl.length first) "" in
  Hashtbl.iter (fun src k -> sources.(k) <- src) first;
  (sources, program_of)

(* Admission: equal shares of the shared pinned budget, fixed before
   any tenant exists.  Shares are deterministic, so a solo replay of
   one tenant (the isolation oracle) reproduces its exact grant by
   passing the same share, and tenants can build in any order or in
   parallel.  The k-budget planner never grants more than its share,
   so the admission sum below cannot overflow; it is checked anyway. *)
let pin_share (cfg : config) ~tenants = cfg.pin_budget / tenants

let admit (cfg : config) tenants =
  let adm = Admission.create ~budget_bytes:cfg.pin_budget in
  Array.iter
    (fun t ->
      if not (Admission.admit adm ~bytes:(Tenant.pinned_granted t)) then
        failwith "Serve.admit: planner exceeded its admission share")
    tenants;
  Admission.admitted_bytes adm

let build ?trace_fabric (cfg : config) (specs : Tenant.spec array) =
  let n = Array.length specs in
  if n = 0 then invalid_arg "Serve.build: no tenants";
  let sources, program_of = sources specs in
  let programs =
    Array.map (Tenant.program ~base:cfg.base ~engine:cfg.engine) sources
  in
  let tenants =
    Array.mapi
      (fun i spec ->
        Tenant.build_from ?trace_fabric ~base:cfg.base ~engine:cfg.engine
          ~pin_share:(pin_share cfg ~tenants:n)
          programs.(program_of.(i)) spec)
      specs
  in
  (tenants, admit cfg tenants)

let run (cfg : config) (specs : Tenant.spec array) =
  let tenants, pin_admitted = build cfg specs in
  drive cfg ~tenants ~pin_admitted
    ~serve:(fun i ~now -> Tenant.serve_next tenants.(i) ~now)

(* ---------- the standard tenant mix ---------- *)

let kv_spec ~name ~seed ~requests ~mean_gap ~fault_rate =
  let keys = 2048 and nbuckets = 256 in
  { Tenant.name; source = Cards_workloads.Kv.source ~keys ~nbuckets;
    seed; requests; mean_gap;
    sample = Loadgen.kv_sample ~keys ~nbuckets; fault_rate }

let analytics_spec ~name ~seed ~requests ~mean_gap ~fault_rate =
  { Tenant.name; source = Cards_workloads.Analytics.source_server ~trips:600;
    seed; requests; mean_gap;
    sample = Loadgen.analytics_sample; fault_rate }

(* Zipf tenant mix: tenant i's offered rate is proportional to
   1/(i+1) (mean gap grows linearly), alternating kv and analytics
   workloads.  Analytics queries are ~3 orders heavier than kv ops
   when their columns spill past the pinned budget, so analytics
   tenants offer proportionally fewer, slower requests — otherwise
   the mix is trivially overloaded and every latency is backlog.
   Seeds are decorrelated per tenant but fully determined by the mix
   seed. *)
let zipf_mix ?faulty ~n ~seed ~requests ~base_gap () =
  Array.init n (fun i ->
      let tseed = (seed * 0x1000193) lxor (i * 0x9e3779b9) in
      let tseed = abs tseed in
      let mean_gap = base_gap *. float_of_int (i + 1) in
      let fault_rate =
        match faulty with Some (j, r) when j = i -> r | _ -> 0.0
      in
      if i mod 2 = 0 then
        kv_spec
          ~name:(Printf.sprintf "t%d-kv" i)
          ~seed:tseed ~requests ~mean_gap ~fault_rate
      else
        analytics_spec
          ~name:(Printf.sprintf "t%d-an" i)
          ~seed:tseed
          ~requests:(max 10 (requests / 4))
          ~mean_gap:(mean_gap *. 40.0) ~fault_rate)

(* Uniform kv mix: n equally-loaded kv tenants with decorrelated
   seeds.  The parallel bench uses it because equal per-tenant work is
   what a domain pool can actually scale (the Zipf mix concentrates
   load on tenant 0, capping any parallel speedup by Amdahl). *)
let uniform_mix ?faulty ~n ~seed ~requests ~gap () =
  Array.init n (fun i ->
      let tseed = abs ((seed * 0x1000193) lxor (i * 0x9e3779b9)) in
      let fault_rate =
        match faulty with Some (j, r) when j = i -> r | _ -> 0.0
      in
      kv_spec
        ~name:(Printf.sprintf "u%d-kv" i)
        ~seed:tseed ~requests ~mean_gap:gap ~fault_rate)

(* Solo replay of one tenant under the same admission share it had in
   an [n]-tenant mix — the isolation oracle's other arm. *)
let run_solo (cfg : config) ~mix_size spec =
  let share_cfg = { cfg with pin_budget = cfg.pin_budget / mix_size } in
  run share_cfg [| spec |]
