(* Stall root-cause attribution: a ledger decomposing every stalled
   CPU cycle into exclusive causes, keyed per data structure AND per
   access site (function, basic block, instruction index — the
   identity the guard-insertion rewrite operates on).

     Σ_{(ds, site)} Σ_cause charge = total stall cycles
                                   = Runtime.now - Profile.compute

   holds by construction: the runtime's one stall function advances
   the clock and charges this ledger in the same step, at its call
   site, with whatever split the fabric exposes (Fabric.transfer's
   queued/proto/serialization decomposition).  Every coarser stall
   view (the per-structure profile table) is a fold over these cells.
   The ledger never writes the clock, so attribution is
   perturbation-free by construction. *)

type cause =
  | Proto
  | Wire
  | Queue of int
  | Pf_wait
  | Retry
  | Guard_exec
  | Trap
  | Bookkeeping

let cause_name = function
  | Proto -> "protocol"
  | Wire -> "wire serialization"
  | Queue qp -> Printf.sprintf "qp%d queueing" qp
  | Pf_wait -> "late-prefetch wait"
  | Retry -> "retry/backoff"
  | Guard_exec -> "guard execution"
  | Trap -> "clean-fault trap"
  | Bookkeeping -> "alloc bookkeeping"

type site = {
  s_fn : string;
  s_block : int;
  s_instr : int;
}

let unknown_site = { s_fn = "(runtime)"; s_block = -1; s_instr = -1 }

let site_name s =
  if s.s_block < 0 then s.s_fn
  else Printf.sprintf "%s/bb%d#%d" s.s_fn s.s_block s.s_instr

(* One ledger cell per (structure, site) pair.  The queue counters
   grow on demand to the highest QP index charged. *)
type cell = {
  cl_ds : int;
  cl_site : site;
  mutable cl_proto : int;
  mutable cl_wire : int;
  mutable cl_queue : int array;
  mutable cl_pf_wait : int;
  mutable cl_retry : int;
  mutable cl_guard : int;
  mutable cl_trap : int;
  mutable cl_book : int;
}

(* The ledger's hot path is a direct-mapped cache of cells in front of
   the table.  A run charges one key per access site and structure,
   but consecutive charges rarely share one — a loop body alternates
   between its access sites — so a one-entry memo would miss on almost
   every charge, and a table probe builds a site record and a key
   tuple and hashes a string.  A cache hit is three int compares and a
   physical compare of the function name (the interpreter passes the
   same string for every charge from one function), with no
   allocation.  A miss, or an equal name in another string, falls
   through to [cells], which stays the store every fold reads. *)
let cache_slots = 1024

type t = {
  cells : (int * site, cell) Hashtbl.t;
  cache : cell array;   (* [cache_slots] slots, see [slot] *)
  mutable qp_max : int; (* highest QP index ever charged, -1 if none *)
  mutable sum : int;    (* Σ of every charge: [charge] is the only
                           writer of cells and of this, so it equals
                           the fold over cells by construction *)
}

let make_cell ds site =
  { cl_ds = ds; cl_site = site; cl_proto = 0; cl_wire = 0;
    cl_queue = [||]; cl_pf_wait = 0; cl_retry = 0; cl_guard = 0;
    cl_trap = 0; cl_book = 0 }

(* Fills every empty cache slot.  Its function name is a private
   string no caller can pass, so it never hits. *)
let no_cell =
  make_cell (-1) { unknown_site with s_fn = Bytes.to_string (Bytes.make 1 '-') }

let create () =
  { cells = Hashtbl.create 64; cache = Array.make cache_slots no_cell;
    qp_max = -1; sum = 0 }

(* Structure handles, block ids and instruction indices are small dense
   integers; odd multipliers spread them over the slots. *)
let slot ~ds ~block ~instr =
  ((ds * 0x9E3779B1) + (block * 0x85EBCA77) + instr) land (cache_slots - 1)

let cell t ~ds ~fn ~block ~instr =
  let i = slot ~ds ~block ~instr in
  let c = t.cache.(i) in
  if
    c.cl_ds = ds && c.cl_site.s_block = block && c.cl_site.s_instr = instr
    && c.cl_site.s_fn == fn
  then c
  else begin
    let site = { s_fn = fn; s_block = block; s_instr = instr } in
    let key = (ds, site) in
    let c =
      match Hashtbl.find_opt t.cells key with
      | Some c -> c
      | None ->
        let c = make_cell ds site in
        Hashtbl.replace t.cells key c;
        c
    in
    t.cache.(i) <- c;
    c
  end

let grow_queue c qp =
  let n = Array.length c.cl_queue in
  if qp >= n then begin
    let nq = Array.make (qp + 1) 0 in
    Array.blit c.cl_queue 0 nq 0 n;
    c.cl_queue <- nq
  end

let charge t ~ds ~fn ~block ~instr cause cycles =
  if cycles <> 0 then begin
    t.sum <- t.sum + cycles;
    let c = cell t ~ds ~fn ~block ~instr in
    match cause with
    | Proto -> c.cl_proto <- c.cl_proto + cycles
    | Wire -> c.cl_wire <- c.cl_wire + cycles
    | Queue qp ->
      grow_queue c qp;
      if qp > t.qp_max then t.qp_max <- qp;
      c.cl_queue.(qp) <- c.cl_queue.(qp) + cycles
    | Pf_wait -> c.cl_pf_wait <- c.cl_pf_wait + cycles
    | Retry -> c.cl_retry <- c.cl_retry + cycles
    | Guard_exec -> c.cl_guard <- c.cl_guard + cycles
    | Trap -> c.cl_trap <- c.cl_trap + cycles
    | Bookkeeping -> c.cl_book <- c.cl_book + cycles
  end

let cell_queue_total c = Array.fold_left ( + ) 0 c.cl_queue

let cell_total c =
  c.cl_proto + c.cl_wire + cell_queue_total c + c.cl_pf_wait + c.cl_retry
  + c.cl_guard + c.cl_trap + c.cl_book

let total t = t.sum

let causes t =
  let qps = t.qp_max + 1 in
  [ Proto; Wire ]
  @ List.init qps (fun i -> Queue i)
  @ [ Pf_wait; Retry; Guard_exec; Trap; Bookkeeping ]

let cell_cause c = function
  | Proto -> c.cl_proto
  | Wire -> c.cl_wire
  | Queue qp -> if qp < Array.length c.cl_queue then c.cl_queue.(qp) else 0
  | Pf_wait -> c.cl_pf_wait
  | Retry -> c.cl_retry
  | Guard_exec -> c.cl_guard
  | Trap -> c.cl_trap
  | Bookkeeping -> c.cl_book

let fold f t acc = Hashtbl.fold (fun _ c acc -> f acc c) t.cells acc

let cause_totals t =
  List.map
    (fun cause -> (cause, fold (fun acc c -> acc + cell_cause c cause) t 0))
    (causes t)

let ds_cause_totals t ds =
  List.map
    (fun cause ->
      ( cause,
        fold
          (fun acc c -> if c.cl_ds = ds then acc + cell_cause c cause else acc)
          t 0 ))
    (causes t)

let ds_list t =
  let seen = Hashtbl.create 8 in
  Hashtbl.iter (fun _ c -> Hashtbl.replace seen c.cl_ds ()) t.cells;
  List.sort compare (Hashtbl.fold (fun ds () acc -> ds :: acc) seen [])

type site_row = {
  r_site : site;
  r_ds : int;
  r_total : int;
  r_causes : (cause * int) list; (* non-zero, largest first *)
}

let site_rows ?(limit = max_int) t =
  let rows =
    fold
      (fun acc c ->
        let tot = cell_total c in
        if tot = 0 then acc
        else begin
          let cs =
            List.filter_map
              (fun cause ->
                let v = cell_cause c cause in
                if v > 0 then Some (cause, v) else None)
              (causes t)
            |> List.sort (fun (_, a) (_, b) -> compare b a)
          in
          { r_site = c.cl_site; r_ds = c.cl_ds; r_total = tot; r_causes = cs }
          :: acc
        end)
      t []
  in
  let rows =
    List.sort
      (fun a b ->
        let c = compare b.r_total a.r_total in
        if c <> 0 then c
        else compare (a.r_site, a.r_ds) (b.r_site, b.r_ds))
      rows
  in
  List.filteri (fun i _ -> i < limit) rows
