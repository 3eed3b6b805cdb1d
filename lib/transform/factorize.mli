(** Memory-layout factorization: hot/cold splitting and AoS→SoA.

    Runs on the freshly lowered module, before pool allocation, so the
    re-analysis the pipeline performs afterwards sees the transformed
    layouts and sizes every descriptor, pool and prefetch class from
    them.  Two rewrites, both driven by {!Cards_analysis.Field_counts}:

    {b Hot/cold splitting} (recursive structs, e.g. list nodes).
    Rarely-accessed fields move out of the node into a {e side pool}:
    the node keeps its hot fields plus one integer slot holding the
    node's allocation index; cold fields live in chunked arrays
    reached through a per-structure directory (a global pointer to an
    array of chunk base pointers).  The node shrinks to the next power
    of two of its hot bytes, so every demand fetch and prefetch run
    carries fewer bytes.  An integer index — not a pointer — links hot
    to cold precisely because the unification-based DSA would merge a
    pointee of a recursive node with the node itself, collapsing both
    halves into one descriptor; the index keeps the hot node, the
    directory and the chunk pools distinct structures, each with its
    own pool and fetch granule.

    {b AoS→SoA} (flat arrays of structs).  The allocation keeps its
    single blob but is re-laid column-major: element pointers stride 8
    bytes instead of the record size, and a field access [p + off]
    becomes [p + (off/8) * n*8] with [n*8] read from a per-array
    stride global written at the allocation site.  Queries touching a
    subset of columns then fault in only those columns' pages.

    Both rewrites bail conservatively: a descriptor is transformed
    only when every allocation site and every address computation that
    can reach it has a shape the rewrite understands, and any access
    site mixing transformed and untransformed views vetoes the whole
    candidate group.  The output module always re-verifies. *)

val run : Cards_ir.Irmod.t -> Cards_analysis.Dsa.t -> Cards_ir.Irmod.t

val splits_last_run : unit -> int
(** Hot/cold-split structure groups rewritten by the last {!run} on
    the calling domain. *)

val soa_last_run : unit -> int
(** AoS→SoA arrays rewritten by the last {!run} on the calling
    domain. *)

val chunk : int
(** Cold records per side-pool chunk (a power of two). *)

val dir_slots : int
(** Chunk-pointer slots in a side-pool directory; [chunk * dir_slots]
    caps the cold records per structure group (guards trap on
    overflow rather than corrupting). *)
