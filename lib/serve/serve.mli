(** The many-tenant serving layer (ROADMAP north star, first leg).

    N tenants each hold a private runtime + fabric slice and a live
    interpreter session; one serving core is time-multiplexed across
    them by deficit round robin ({!Drr}) in measured cycles, with
    pinned local memory split by admission control ({!Admission}) and
    each tenant's k-budget planned online by Max-Use ({!Kbudget}).

    The serving clock is the sum of dispatched service costs plus the
    idle gaps to the next arrival, so the decomposition

    [total_cycles = idle_cycles + Σ tenant service_cycles]

    holds {e exactly}, as does [Σ per-tenant fetched_bytes = global]
    via {!Cards_net.Fabric.add_stats} — both are asserted by the
    bench gate and the differential oracle.

    Isolation: a tenant's computation (outputs, per-request service
    records, fabric counters) is bit-identical to running it alone
    ({!run_solo}), because the only shared resource is the serving
    clock; contention moves {e latency}, never {e results}.  A faulty
    tenant's ballooned request costs become scheduler debt, so it
    sits out rounds while healthy tenants keep their tails. *)

type config = {
  quantum : int;       (** DRR replenishment per round, cycles *)
  pin_budget : int;    (** shared pinned local-memory budget, bytes *)
  base : Cards_runtime.Runtime.config;  (** per-tenant template *)
  engine : Cards_interp.Machine.engine;
}

val default_config : config
(** 20 K-cycle quantum; a deliberately memory-tight tenant template —
    2 MiB local, 64 KiB remotable cache, 256 KiB shared pinned budget
    — so the k-budget planner has real choices, unpinned structures
    pay real costs, and a faulty fabric slice carries traffic for the
    injector to hit.  Decoded engine. *)

type tenant_result = {
  tr_name : string;
  tr_served : int;
  tr_setup_cycles : int;       (** off the serving clock *)
  tr_service_cycles : int;
  tr_stall_cycles : int;       (** attribution-ledger share of service *)
  tr_wait_cycles : int;        (** queueing behind other tenants *)
  tr_latency : Cards_util.Stats.t;  (** wait + service per request *)
  tr_pinned_granted : int;
  tr_records : Tenant.record list;
  tr_output : string list;
  tr_fabric : Cards_net.Fabric.stats;
  tr_degrade_level : int;
  tr_deficit_end : int;
}

type result = {
  tenants : tenant_result array;
  total_cycles : int;          (** final serving-clock value *)
  busy_cycles : int;           (** = Σ tenant service cycles *)
  idle_cycles : int;           (** clock hops with empty queues *)
  granted : int;               (** DRR credit issued *)
  charged : int;               (** DRR credit consumed *)
  forfeited : int;             (** credit dropped by idle tenants *)
  rounds : int;
  stolen : int array array;
      (** [stolen.(victim).(culprit)] = cycles victim's requests
          spent queued while culprit held the core *)
  fabric : Cards_net.Fabric.stats;  (** Σ over tenants *)
  pin_budget : int;
  pin_admitted : int;
}

val run : config -> Tenant.spec array -> result
(** {!build} the mix on the calling domain, then {!drive} it.
    @raise Invalid_argument on an empty mix. *)

val build :
  ?trace_fabric:bool ->
  config ->
  Tenant.spec array ->
  Tenant.t array * int
(** Build and admit every tenant of a mix on the calling domain, the
    build path of {!run}.  Each tenant gets an equal {!pin_share};
    tenants with the same source share one program ({!Tenant.program},
    one per entry of {!sources}, in order), and then each tenant is
    built from its program ({!Tenant.build_from}), in order.  The
    parallel engine schedules the same two steps as jobs of its own.
    Finally {!admit}.  Returns the tenants and the admitted bytes.
    @raise Invalid_argument on an empty mix. *)

val sources : Tenant.spec array -> string array * int array
(** A mix's distinct sources in first-seen order, and each tenant's
    index into them. *)

val pin_share : config -> tenants:int -> int
(** Each tenant's admission share of [pin_budget] in a mix of
    [tenants]: an equal split, fixed before any tenant exists. *)

val admit : config -> Tenant.t array -> int
(** Admit a built mix's pinned grants against [pin_budget]; returns
    the admitted bytes.
    @raise Failure if the grants exceed the budget. *)

val drive :
  config ->
  tenants:Tenant.t array ->
  pin_admitted:int ->
  serve:(int -> now:int -> int) ->
  result
(** The DRR merge loop of {!run}, over already-built tenants: calls
    [serve i ~now] for every dispatch and charges the returned cost.
    Every scheduling decision depends only on the arrival streams, the
    committed prefix, and the costs [serve] returns — so the parallel
    engine ({!Cards_par.Engine}) replays the exact sequential schedule
    by swapping [serve] from "execute now" ({!Tenant.serve_next}) to
    "commit the tenant's next completion record". *)

val kv_spec :
  name:string -> seed:int -> requests:int -> mean_gap:float ->
  fault_rate:float -> Tenant.spec
(** 2048-key / 256-bucket kv store under the standard get/put/scan
    mix. *)

val analytics_spec :
  name:string -> seed:int -> requests:int -> mean_gap:float ->
  fault_rate:float -> Tenant.spec
(** 600-trip analytics column store under the Zipf query mix. *)

val zipf_mix :
  ?faulty:int * float ->
  n:int -> seed:int -> requests:int -> base_gap:float -> unit ->
  Tenant.spec array
(** The standard mix: tenant [i] offers load proportional to
    [1/(i+1)], alternating kv and analytics, seeds decorrelated from
    the mix seed.  [faulty = (i, rate)] gives tenant [i] a faulty
    fabric slice. *)

val uniform_mix :
  ?faulty:int * float ->
  n:int -> seed:int -> requests:int -> gap:float -> unit ->
  Tenant.spec array
(** [n] equally-loaded kv tenants with decorrelated seeds — the
    parallel bench's mix, because equal per-tenant work is what a
    domain pool can actually scale.  [faulty] as in {!zipf_mix}. *)

val run_solo : config -> mix_size:int -> Tenant.spec -> result
(** Run one tenant alone under the admission share it would hold in a
    [mix_size]-tenant mix — the isolation oracle's private-fabric
    arm. *)
