(** Natural-loop detection from back edges.

    CaRDS's prefetch analysis, guard hoisting, and code versioning all
    operate per loop; [Usecount]'s Equation-1 score counts loops that
    access a data structure. *)

type loop = {
  header : int;               (** loop header block id *)
  body : Cards_util.Bitset.t; (** blocks in the loop, including header *)
  back_edges : int list;      (** sources of the back edges *)
  depth : int;                (** nesting depth; outermost = 1 *)
  parent : int option;        (** index of the enclosing loop, if any *)
}

type t

val compute : Cfg.t -> Dominators.t -> t

val loops : t -> loop array
(** All natural loops, outermost first (by nesting depth). *)

val loop_of_block : t -> int -> int option
(** Index (into {!loops}) of the innermost loop containing the block. *)

val preheader : Cfg.t -> loop -> int option
(** The unique out-of-loop predecessor of the header, if there is
    exactly one and it has the header as its only successor. *)
