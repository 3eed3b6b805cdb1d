(** An unbounded FIFO channel between domains — each tenant's mailbox
    in the parallel engine, carrying its completion records from the
    domain that executes them to the coordinator that commits them.

    {!push} never blocks, so no executing domain can deadlock against
    the coordinator.  {!pop} blocks while the channel is empty: that
    wait is the engine's conservative lookahead barrier.
    A failing domain {!poison}s the channel, so a blocked or later
    {!pop} and every later {!push} raise {!Poisoned} instead of hanging
    the run. *)

exception Poisoned of exn

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Append a value and wake a blocked {!pop}.
    @raise Poisoned once the channel is poisoned. *)

val pop : 'a t -> 'a
(** Remove the oldest value, blocking while there is none.
    @raise Poisoned once the channel is poisoned, queued values or not. *)

val try_pop : 'a t -> 'a option
(** Remove the oldest value, or [None] at once when there is none.
    @raise Poisoned once the channel is poisoned, queued values or not. *)

val poison : 'a t -> exn -> unit
(** Stamp the channel with a fatal exception and wake every waiter.
    The first exception wins; later poisons keep it. *)
