(** One tenant of the serving layer.

    A tenant owns a private runtime (namespaced via
    {!Cards_runtime.Runtime.config.namespace}), a private fabric
    slice (with its own fault injection), a live interpreter session
    holding its data structures, and its open-loop arrival stream.
    Privacy is what makes the isolation oracle hold {e by
    construction} at the data level: a tagged pointer can never
    resolve against another tenant's handle table, so the only
    cross-tenant coupling is the serving clock the scheduler
    time-multiplexes.

    Creation pipeline: compile the MiniC serving source → probe
    [setup()]'s per-structure footprint on a scratch all-remotable
    runtime → plan the pinned set online ({!Kbudget.plan} by Max-Use
    within the tenant's admitted share) → build the real runtime and
    run [setup()] for real → pre-generate arrivals.

    Every request's measured cost is checked against the PR 3 ledger:
    [cost = Δcompute + Δattribution] must hold per request, or
    serving aborts. *)

type spec = {
  name : string;                 (** namespace + report label *)
  source : string;               (** MiniC with [setup()] and [req(op,a,b)] *)
  seed : int;                    (** arrival stream + fault schedule seed *)
  requests : int;
  mean_gap : float;              (** mean inter-arrival gap, cycles *)
  sample : Cards_util.Rng.t -> Loadgen.request;
  fault_rate : float;            (** this tenant's fabric fault rate *)
}

type record = { req : Loadgen.request; ret : int; cost : int }
(** Per-request service record — what the isolation oracle compares
    bit for bit between a shared run and a solo run. *)

type t

type prep
(** A compiled-but-not-built tenant.  {!prepare} runs the MiniC
    compiler; {!build} does only tenant-private work (footprint probe,
    k-budget plan, runtime, [setup()], arrival stream).  Either runs on
    any domain. *)

val prepare :
  ?trace_fabric:bool ->
  base:Cards_runtime.Runtime.config ->
  engine:Cards_interp.Machine.engine ->
  pin_share:int ->
  spec ->
  prep
(** [pin_share] is the pinned-byte budget the k-budget planner may
    consume (what admission control granted).  [trace_fabric] (default
    false) installs a port observer on the tenant's fabric slice so
    {!fabric_events} returns its wire-event stream; pure observation —
    results are bit-identical either way. *)

val build : prep -> t

(** {2 Shared programs}

    A mix's build pipeline in two steps, so that tenants with the same
    source share one compiled program and one footprint probe:
    {!program} once per distinct source, then {!build_from} once per
    tenant.  [build_from ~trace_fabric ~base ~engine ~pin_share
    (program ~base ~engine spec.source) spec] is
    [build (prepare ~trace_fabric ~base ~engine ~pin_share spec)], bit
    for bit.  Both steps run on any domain, and one program can build
    tenants on several domains at once: it is never mutated. *)

type program
(** A compiled source with its [setup()] footprint, probed under the
    [base] and [engine] it was made with. *)

val program :
  base:Cards_runtime.Runtime.config ->
  engine:Cards_interp.Machine.engine ->
  string ->
  program
(** Compile a MiniC serving source and probe its footprint. *)

val build_from :
  ?trace_fabric:bool ->
  base:Cards_runtime.Runtime.config ->
  engine:Cards_interp.Machine.engine ->
  pin_share:int ->
  program ->
  spec ->
  t
(** Build a tenant from a {!program} of its [source], made under the
    same [base] and [engine]; arguments as in {!prepare}. *)

val finished : t -> bool
val pending : t -> now:int -> bool
(** Has an arrived-but-unserved request at serving time [now]. *)

val next_arrival : t -> int option
(** Arrival time of the oldest unserved request. *)

val serve_next : t -> now:int -> int
(** Serve the oldest pending request at serving time [now]; returns
    the measured service cost in cycles.  Records latency
    ([wait + cost]), the service record, and the printed output.
    Equal to [commit ~now (exec_next t)].
    @raise Failure if the per-request ledger decomposition breaks. *)

type exec = {
  e_ix : int;           (** request index in the arrival stream *)
  e_ret : int;
  e_cost : int;         (** measured service cycles *)
  e_stall : int;        (** attribution-ledger share of [e_cost] *)
  e_out : string list;
}
(** One executed-but-uncommitted request: everything {!commit} needs
    to fold it into the serving-clock accounting.  Independent of the
    serving clock by construction (the tenant-isolation invariant), so
    any domain can run {!exec_next} arbitrarily far ahead. *)

val exec_remaining : t -> int
(** Requests not yet executed (execution side; [>=] unserved count). *)

val exec_next : t -> exec
(** Execute the next request against the tenant's private runtime and
    advance the execution cursor.  Touches only execution-side state.
    @raise Failure if the per-request ledger decomposition breaks. *)

val commit : t -> now:int -> exec -> int
(** Commit an executed request at serving time [now]; returns its cost.
    Touches only coordinator-side accounting state.
    @raise Failure when records arrive out of execution order. *)

val name : t -> string
val served : t -> int
val setup_cycles : t -> int
val service_cycles : t -> int
val stall_cycles : t -> int
(** Non-compute service cycles, from the attribution ledger. *)

val wait_cycles : t -> int
val latency : t -> Cards_util.Stats.t
val pinned_granted : t -> int
val records : t -> record list
val output : t -> string list
val fabric_stats : t -> Cards_net.Fabric.stats
val degrade_level : t -> int
val runtime : t -> Cards_runtime.Runtime.t
val compiled : t -> Cards.Pipeline.compiled

val fabric_events : t -> Cards_net.Fabric.port_event list
(** The tenant's wire-event stream in local virtual time, in issue
    order — empty unless built with [trace_fabric]. *)
