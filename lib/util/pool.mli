(** A work-stealing map over OCaml 5 domains. *)

val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f xs] is [Array.map f xs], computed on the calling
    domain plus up to [domains - 1] spawned ones (never more domains
    than elements).  Each domain claims the next unclaimed index until
    none is left, so uneven costs balance themselves; results land in
    input order whatever the interleaving.  A domain stops claiming at
    its first exception.  Every domain is joined before [map] returns
    or raises, and it raises the exception of the lowest failing index
    — the one [Array.map] would raise.  At [domains = 1] it spawns
    nothing: it is [Array.map] on the calling domain.
    @raise Invalid_argument when [domains < 1]. *)
