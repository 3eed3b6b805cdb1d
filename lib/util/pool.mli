(** The process's persistent pool of OCaml 5 domains.

    Pool domains are spawned only when a call asks for more helpers
    than the pool has ever had, and park on a mutex and condition
    variable between calls, so repeated calls reuse the same domains
    (and their heaps).  The calling domain always works through a
    call's jobs itself and waits only for the helpers that actually
    started on them, so no call can wait for a pool domain that is
    busy elsewhere: a call made from inside a pool job, or while every
    pool domain is taken, still completes, with fewer helpers.  Parked
    domains do not keep the process from exiting. *)

val run : domains:int -> (int -> unit) -> unit
(** [run ~domains work] calls [work 0] on the calling domain and
    [work w] for distinct [w] in [1 .. domains - 1] on the pool domains
    that are free to take them, spawning domains until the pool has
    [domains - 1].  A helper index nobody has taken by the time
    [work 0] returns is withdrawn and never runs.  [run] returns once
    [work 0] and every started helper have returned; it then re-raises
    [work 0]'s exception, else the first helper's.  At [domains = 1]
    it is [work 0].
    @raise Invalid_argument when [domains < 1]. *)

val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f xs] is [Array.map f xs], computed by {!run} on the
    calling domain plus up to [domains - 1] pool domains (never more
    domains than elements).  Each domain claims the next unclaimed
    index until none is left, so uneven costs balance themselves;
    results land in input order whatever the interleaving.  A domain
    stops claiming at its first exception.  Every started helper has
    returned before [map] returns or raises, and it raises the
    exception of the lowest failing index — the one [Array.map] would
    raise.  At [domains = 1] it is [Array.map] on the calling domain.
    @raise Invalid_argument when [domains < 1]. *)

val spawned : unit -> int
(** Pool domains this process has spawned so far: the largest helper
    count any call has asked for, unless a spawn failed. *)
