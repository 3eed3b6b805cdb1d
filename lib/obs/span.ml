module Vec = Cards_util.Vec

type kind =
  | Demand
  | Escalated
  | Retry
  | Prefetch
  | Batch
  | Pf_settle
  | Pf_hit
  | Trap
  | Call
  | Degrade of { level : int; observed_pct : int }
  | Policy_switch of { from_pf : string; to_pf : string }
  | Epoch
  | Loop_version of { clean : bool }

type edge = E_trigger | E_member | E_retry | E_satisfy | E_trap

type t = {
  sp_id : int;
  sp_kind : kind;
  sp_parent : int;
  sp_edge : edge option;
  sp_ds : int;
  sp_obj : int;
  sp_fn : string;
  sp_block : int;
  sp_instr : int;
  sp_issued : int;
  sp_start : int;
  sp_complete : int;
  sp_queued : int;
  sp_proto : int;
  sp_wire : int;
  sp_retry : int;
  sp_pf_wait : int;
  sp_trap : int;
  sp_qp : int;
  sp_bytes : int;
  sp_fault : string option;
}

let kind_name = function
  | Demand -> "demand"
  | Escalated -> "escalated"
  | Retry -> "retry"
  | Prefetch -> "prefetch"
  | Batch -> "batch"
  | Pf_settle -> "pf-settle"
  | Pf_hit -> "pf-hit"
  | Trap -> "trap"
  | Call -> "call"
  | Degrade _ -> "degrade"
  | Policy_switch _ -> "policy-switch"
  | Epoch -> "epoch"
  | Loop_version _ -> "loop-version"

let is_mark = function
  | Call | Degrade _ | Policy_switch _ | Epoch | Loop_version _ -> true
  | Demand | Escalated | Retry | Prefetch | Batch | Pf_settle | Pf_hit | Trap ->
    false

let edge_name = function
  | E_trigger -> "trigger"
  | E_member -> "member"
  | E_retry -> "retry-of"
  | E_satisfy -> "satisfies"
  | E_trap -> "trap-fetch"

let stall s =
  s.sp_queued + s.sp_proto + s.sp_wire + s.sp_retry + s.sp_pf_wait + s.sp_trap

type collector = {
  c_rate : float;
  mutable c_acc : float;  (* sampling accumulator, in [0, 1) *)
  mutable c_next : int;  (* next span id *)
  c_spans : t Vec.t;
  c_inflight : (int * int, int) Hashtbl.t;  (* (ds, obj) -> span id *)
  mutable c_listener : (t -> unit) option;
}

let create ?(rate = 1.0) () =
  { c_rate = Float.min 1.0 (Float.max 0.0 rate);
    c_acc = 0.0;
    c_next = 0;
    c_spans = Vec.create ();
    c_inflight = Hashtbl.create 64;
    c_listener = None }

let sampled c =
  c.c_rate >= 1.0
  ||
  (c.c_acc <- c.c_acc +. c.c_rate;
   c.c_acc >= 1.0
   &&
   (c.c_acc <- c.c_acc -. 1.0;
    true))

let fresh c =
  let id = c.c_next in
  c.c_next <- id + 1;
  id

let add c s =
  ignore (Vec.push c.c_spans s);
  match c.c_listener with Some f -> f s | None -> ()

let length c = Vec.length c.c_spans

let call c ~since ~fn ~issued ~complete =
  if length c > since then
    add c
      { sp_id = fresh c; sp_kind = Call; sp_parent = -1; sp_edge = None;
        sp_ds = 0; sp_obj = 0; sp_fn = fn; sp_block = 0; sp_instr = 0;
        sp_issued = issued; sp_start = issued; sp_complete = complete;
        sp_queued = 0; sp_proto = 0; sp_wire = 0; sp_retry = 0;
        sp_pf_wait = 0; sp_trap = 0; sp_qp = -1; sp_bytes = 0;
        sp_fault = None }

let spans c = Vec.to_list c.c_spans

let iter f c = Vec.iteri (fun _ s -> f s) c.c_spans

let set_listener c f = c.c_listener <- Some f

let note_inflight c ~ds ~obj ~span = Hashtbl.replace c.c_inflight (ds, obj) span

let take_inflight c ~ds ~obj =
  match Hashtbl.find_opt c.c_inflight (ds, obj) with
  | Some span ->
    Hashtbl.remove c.c_inflight (ds, obj);
    span
  | None -> -1

type totals = {
  tot_queue : int array;
  tot_proto : int;
  tot_wire : int;
  tot_retry : int;
  tot_pf_wait : int;
  tot_trap : int;
}

let cpu_totals c =
  let qp_max =
    let m = ref 0 in
    iter (fun s -> if s.sp_qp > !m then m := s.sp_qp) c;
    !m
  in
  let queue = Array.make (qp_max + 1) 0 in
  let proto = ref 0 and wire = ref 0 in
  let retry = ref 0 and pf_wait = ref 0 and trap = ref 0 in
  iter
    (fun s ->
      match s.sp_kind with
      | Demand | Escalated ->
        if s.sp_qp >= 0 then queue.(s.sp_qp) <- queue.(s.sp_qp) + s.sp_queued;
        proto := !proto + s.sp_proto;
        wire := !wire + s.sp_wire
      | Retry -> retry := !retry + s.sp_retry
      | Pf_settle -> pf_wait := !pf_wait + s.sp_pf_wait
      | Trap -> trap := !trap + s.sp_trap
      | Prefetch | Batch | Pf_hit | Call | Degrade _ | Policy_switch _ | Epoch
      | Loop_version _ ->
        ())
    c;
  { tot_queue = queue;
    tot_proto = !proto;
    tot_wire = !wire;
    tot_retry = !retry;
    tot_pf_wait = !pf_wait;
    tot_trap = !trap }

let well_formed c =
  let seen = Hashtbl.create (length c) in
  let ok = ref true in
  iter
    (fun s ->
      if Hashtbl.mem seen s.sp_id then ok := false;
      Hashtbl.replace seen s.sp_id ();
      if s.sp_id < 0 || s.sp_id >= c.c_next then ok := false;
      if s.sp_parent < -1 || s.sp_parent >= s.sp_id then ok := false;
      match s.sp_edge with
      | Some _ -> if s.sp_parent < 0 then ok := false
      | None -> if s.sp_parent >= 0 then ok := false)
    c;
  !ok
