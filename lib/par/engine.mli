(** Parallel tenant serving on OCaml 5 domains under deterministic
    virtual time (DESIGN.md §13).

    Tenants build on a {!Pool}, then execute on worker domains against
    their private runtimes, running {e ahead} of the serving clock and
    pushing each completion record into their own {!Chan}.  The calling
    domain replays the exact sequential DRR schedule
    ({!Cards_serve.Serve.drive}), where serving tenant [i] pops and
    commits [i]'s next record.  The blocking pop is the conservative
    lookahead barrier: the coordinator can never advance onto a
    dispatch whose record does not exist, and
    {!Cards_serve.Tenant.commit} fails a record that arrives out of
    execution order.  Results are bit-identical to
    {!Cards_serve.Serve.run} for any domain count or perturbation — the
    stress suite and the bench [par] gate assert it. *)

val assignment : n:int -> domains:int -> int array
(** Tenant→domain pinning: tenant [i] runs on domain [i mod d] where
    [d = max 1 (min domains n)].  Deterministic, so reports can label
    which domain served each tenant. *)

val run :
  ?perturb:int ->
  domains:int ->
  Cards_serve.Serve.config ->
  Cards_serve.Tenant.spec array ->
  Cards_serve.Serve.result
(** Serve the mix on [domains] worker domains (capped at the tenant
    count; 1 is a degenerate but valid pool).  [perturb] > 0 adds a
    seeded artificial spin (up to that many relax steps) before every
    tenant build and request execution, randomizing real interleaving
    for the stress suite.  Both change wall-clock time only: the
    returned result is bit-identical to {!Cards_serve.Serve.run}.
    When a tenant fails on any domain, every domain is joined before
    the first exception is re-raised.
    @raise Invalid_argument on an empty mix or [domains < 1]. *)

val run_traced :
  ?perturb:int ->
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
