(** Parallel tenant serving on OCaml 5 domains under deterministic
    virtual time (DESIGN.md §13).

    Tenants build through {!Cards_serve.Serve.build} on a
    {!Cards_util.Pool}, then execute against their private runtimes,
    running {e ahead} of the serving clock and pushing each completion
    record into their own {!Chan}.  The calling domain replays the exact
    sequential DRR schedule ({!Cards_serve.Serve.drive}), where serving
    tenant [i] commits [i]'s next record.  The engine is
    work-conserving: every domain, the calling one included, claims
    whichever tenant is idle and executes its next request, so a tenant
    never waits for a particular domain.  The calling domain blocks
    only when every live tenant is already running elsewhere, and
    {!Cards_serve.Tenant.commit} fails a record that arrives out of
    execution order.  Results are
    bit-identical to {!Cards_serve.Serve.run} for any domain count or
    perturbation — the stress suite and the bench [par] gate assert
    it. *)

val run :
  ?perturb:(int -> unit) ->
  domains:int ->
  Cards_serve.Serve.config ->
  Cards_serve.Tenant.spec array ->
  Cards_serve.Serve.result
(** Build the mix on a pool of [domains] domains, then serve it on the
    calling domain plus [domains] worker domains (capped so that the
    two together never outnumber the tenants).
    [perturb k] runs on the executing domain right before the build's
    probe [k] and tenant [k]'s build ({!Cards_serve.Serve.build}) and
    before each request of tenant [k] starts; calls with one index never
    overlap, and a domain that has seen a failure starts no request.
    The stress suite passes seeded spins to randomize the real
    interleaving of builds and requests, which changes wall-clock time
    only: the returned result is bit-identical to
    {!Cards_serve.Serve.run}.  When a tenant fails on any domain,
    every domain is joined before the first exception is re-raised.
    @raise Invalid_argument on an empty mix or [domains < 1]. *)

val run_traced :
  ?perturb:(int -> unit) ->
  domains:int ->
  Cards_serve.Serve.config ->
  Cards_serve.Tenant.spec array ->
  Cards_serve.Serve.result * Cards_net.Fabric.port_event list array
(** {!run} with per-tenant fabric-port tracing on (pure observation —
    the result is unchanged), returning each tenant's wire-event stream
    in its local virtual time, bit-comparable against {!seq_traced}. *)

val seq_traced :
  Cards_serve.Serve.config ->
  Cards_serve.Tenant.spec array ->
  Cards_serve.Serve.result * Cards_net.Fabric.port_event list array
(** The sequential reference ({!Cards_serve.Serve.run}, bit for bit)
    with fabric tracing on — the differential tests compare its
    streams against {!run_traced}'s. *)
