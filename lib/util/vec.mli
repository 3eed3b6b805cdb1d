(** Growable arrays (OCaml 5.1 predates [Dynarray]): the backing
    store of the DSA node arena, the IR rewriter's register and block
    tables, and the span and metrics collectors. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-range index. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int
(** Append and return the new element's index. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val to_list : 'a t -> 'a list

val ensure : 'a t -> int -> 'a -> unit
(** [ensure v n fill] grows [v] with [fill] until [length v >= n]. *)
