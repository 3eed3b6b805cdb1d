(** Per-data-structure prefetchers (paper §4.2, "Prefetching Policy
    Selection"): a majority stride-based prefetcher, a greedy recursive
    prefetcher, and a jump-pointer prefetcher.

    A prefetcher observes the object-index stream of one data structure
    and appends the objects to fetch ahead to a {!targets} buffer the
    runtime owns, as (handle, object) pairs.  Greedy and jump-pointer
    prefetchers may target other structures (a node can point into a
    different pool), so every target carries a handle.

    - {e Stride}: keeps a small window of recent index deltas; when a
      majority agree it locks that stride and fetches [depth] objects
      ahead.  At unit stride it tops the ahead window up in
      ~[depth]-object chunks of consecutive objects, so a batching
      fabric can carry a whole chunk in one request instead of paying
      the protocol cost per object.
    - {e Greedy recursive}: when an object is (re)fetched, scans its
      contents for tagged pointers and fetches their objects — one
      level of fan-out, good for trees.
    - {e Jump pointer}: remembers, per object, the object the traversal
      visited [jump] steps later, and fetches through that table —
      effective for linear chains from the second traversal on.  The
      window is appended farthest object first. *)

type targets = {
  mutable buf : int array;
      (** pair [i] is handle [buf.(2i)] (0 means "this structure") and
          object [buf.(2i+1)] *)
  mutable n : int;  (** live pairs: [0, n) *)
}
(** A growable buffer of prefetch targets.  It allocates only when it
    grows, so the runtime keeps one and reuses it on every access; the
    record is exposed so the runtime reads and filters it in place. *)

val targets : unit -> targets
(** An empty buffer. *)

val push : targets -> int -> int -> unit
(** [push b handle obj] appends one target. *)

val sort_uniq : targets -> unit
(** Sort the live pairs by (handle, object) and drop repeats, in place:
    the result equals [List.sort_uniq compare] on the pairs. *)

val to_list : targets -> (int * int) list
(** The live pairs in buffer order (for tests and diagnostics). *)

type t

val stride : depth:int -> t
val greedy : fanout:int -> t
val jump : jump:int -> depth:int -> t

val of_class : Static_info.prefetch_class -> depth:int -> t option
(** The paper's class→prefetcher mapping; [No_prefetch] gives [None]. *)

val on_access :
  t -> targets -> obj:int -> missed:bool -> scan:(targets -> int -> unit) ->
  unit
(** Feed one access to object [obj] (an index, [>= 0]) and append its
    prefetch candidates (possibly already resident — the runtime
    filters) to the buffer, in emission order.  [scan b o] appends the
    pointer targets stored in object [o]; only the greedy prefetcher
    calls it, and only on misses. *)

val kind_name : t -> string

val calls : t -> int
(** Accesses observed (observability counter). *)

val targets_emitted : t -> int
(** Prefetch candidate objects appended over the prefetcher's
    lifetime — before the runtime's residency/window filtering. *)
