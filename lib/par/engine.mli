(** Parallel tenant serving on OCaml 5 domains under deterministic
    virtual time (DESIGN.md §13).

    The whole mix is one set of jobs: a program job per distinct
    source ({!Cards_serve.Tenant.program}: compile and footprint
    probe), a build job per tenant ({!Cards_serve.Tenant.build_from}),
    and each tenant's requests, run against its private runtime
    {e ahead} of the serving clock with each completion record pushed
    into the tenant's own {!Chan}.  The engine is work-conserving:
    every domain, the calling one included, takes the first unclaimed
    program job, else the first buildable tenant, else an idle built
    tenant's next request, so tenants build while others already
    serve, and no job waits for a particular domain.  Once every tenant
    is built, the calling domain admits the mix
    ({!Cards_serve.Serve.admit}) and replays the exact sequential DRR
    schedule ({!Cards_serve.Serve.drive}), where serving tenant [i]
    commits [i]'s next record; it blocks only when every live tenant is
    already running elsewhere, and {!Cards_serve.Tenant.commit} fails a
    record that arrives out of execution order.  The worker domains
    come from the persistent {!Cards_util.Pool}.  Results are
    bit-identical to {!Cards_serve.Serve.run} for any domain count or
    perturbation — the stress suite and the bench [par] gate assert
    it. *)

val run :
  ?perturb:(int -> unit) ->
  domains:int ->
  Cards_serve.Serve.config ->
  Cards_serve.Tenant.spec array ->
  Cards_serve.Serve.result
(** Build and serve the mix on the calling domain plus [domains]
    worker domains from {!Cards_util.Pool} (capped so that the two
    together never outnumber the tenants).
    [perturb k] runs on the executing domain right before each job
    starts: before tenant [k]'s build and each of its requests, and
    before the program job of a source whose first tenant is [k] (that
    tenant cannot be building or running yet).  So calls with one index
    never overlap, and a domain that has seen a failure starts no job.
    The stress suite passes seeded spins to randomize the real
    interleaving of compiles, builds and requests, which changes
    wall-clock time only: the returned result is bit-identical to
    {!Cards_serve.Serve.run}.  The first failure, in any job on any
    domain, fails the run: it is re-raised only once every worker has
    returned from its job.
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
