type t = {
  cap : int;
  pin_cap : int;
  ring : Span.t option array;  (* overwrite ring, newest kept *)
  mutable added : int;
  pinned : (int, Span.t) Hashtbl.t;
  wanted : (int, unit) Hashtbl.t;  (* parent ids awaited for pinning *)
  mutable dropped_pins : int;
  mutable flagged : int;
  mutable last_flagged : Span.t option;
}

let create ?(capacity = 256) () =
  let cap = max 1 capacity in
  { cap;
    pin_cap = 16 * cap;
    ring = Array.make cap None;
    added = 0;
    pinned = Hashtbl.create 64;
    wanted = Hashtbl.create 16;
    dropped_pins = 0;
    flagged = 0;
    last_flagged = None }

let ring_length t = min t.added t.cap

let pinned_count t = Hashtbl.length t.pinned

let dropped_pins t = t.dropped_pins

let flagged t = t.flagged

let last_flagged t = t.last_flagged

let needs_pin (s : Span.t) =
  match s.sp_kind with
  | Span.Retry | Span.Escalated | Span.Trap -> true
  | _ -> s.sp_fault <> None

let find_ring t id =
  let n = ring_length t in
  let rec go i =
    if i >= n then None
    else
      match t.ring.((t.added - 1 - i) mod t.cap) with
      | Some s when s.sp_id = id -> Some s
      | _ -> go (i + 1)
  in
  go 0

let retained t id =
  match Hashtbl.find_opt t.pinned id with
  | Some _ as r -> r
  | None -> find_ring t id

(* Pin [s] and as much of its ancestry as is retained; parents that
   have not completed yet go on the wanted-set and are pinned in
   [add] when they arrive. *)
let rec pin t (s : Span.t) =
  if not (Hashtbl.mem t.pinned s.sp_id) then
    if Hashtbl.length t.pinned >= t.pin_cap then
      t.dropped_pins <- t.dropped_pins + 1
    else begin
      Hashtbl.replace t.pinned s.sp_id s;
      if s.sp_parent >= 0 then begin
        match retained t s.sp_parent with
        | Some p -> pin t p
        | None -> Hashtbl.replace t.wanted s.sp_parent ()
      end
    end

let add t (s : Span.t) =
  if not (Span.is_mark s.sp_kind) then begin
    t.ring.(t.added mod t.cap) <- Some s;
    t.added <- t.added + 1;
    if Hashtbl.mem t.wanted s.sp_id then begin
      Hashtbl.remove t.wanted s.sp_id;
      pin t s
    end;
    if needs_pin s then begin
      t.flagged <- t.flagged + 1;
      t.last_flagged <- Some s;
      pin t s
    end
  end

let chain_of t (s : Span.t) =
  let rec up acc (s : Span.t) =
    let acc = s :: acc in
    if s.sp_parent < 0 then acc
    else
      match retained t s.sp_parent with
      | Some p -> up acc p
      | None -> acc
  in
  up [] s

let ring_newest_first t =
  let n = ring_length t in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match t.ring.((t.added - 1 - i) mod t.cap) with
      | Some s -> go (i + 1) (s :: acc)
      | None -> go (i + 1) acc
  in
  go 0 []

let pp_span b ~names (s : Span.t) =
  Printf.bprintf b
    "    #%d %-9s %-12s obj %-6d %s@%d.%d  %d..%d (%d cy" s.Span.sp_id
    (Span.kind_name s.sp_kind) (names s.sp_ds) s.sp_obj s.sp_fn s.sp_block
    s.sp_instr s.sp_issued s.sp_complete
    (Span.stall s);
  let ph name v = if v > 0 then Printf.bprintf b " %s=%d" name v in
  ph "queued" s.sp_queued;
  ph "proto" s.sp_proto;
  ph "wire" s.sp_wire;
  ph "retry" s.sp_retry;
  ph "pf-wait" s.sp_pf_wait;
  ph "trap" s.sp_trap;
  if s.sp_qp >= 0 then Printf.bprintf b " qp%d" s.sp_qp;
  (match s.sp_fault with
  | Some f -> Printf.bprintf b " fault:%s" f
  | None -> ());
  (match s.sp_edge with
  | Some e -> Printf.bprintf b " %s->#%d" (Span.edge_name e) s.sp_parent
  | None -> ());
  Buffer.add_string b ")\n"

let postmortem ?(reason = "post-mortem requested") ?degrade_level ~names t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "-- flight recorder post-mortem: %s\n" reason;
  (match degrade_level with
  | Some l -> Printf.bprintf b "   degradation window: level %d\n" l
  | None -> ());
  Printf.bprintf b
    "   %d spans retained (%d ring + %d pinned), %d flagged%s\n"
    (ring_length t + pinned_count t)
    (ring_length t) (pinned_count t) t.flagged
    (if t.dropped_pins > 0 then
       Printf.sprintf ", %d pins dropped" t.dropped_pins
     else "");
  (match t.last_flagged with
  | None -> Buffer.add_string b "   no flagged span: nothing retried, escalated or trapped\n"
  | Some s ->
    Printf.bprintf b "   causal chain of last flagged span (#%d, %s):\n"
      s.sp_id (Span.kind_name s.sp_kind);
    let chain = chain_of t s in
    List.iter (pp_span b ~names) chain;
    (* The chain only walks ancestors; the trouble usually hangs off
       the root as children (retries of an escalated fetch), and those
       stay pinned long after the ring moves on — show them too. *)
    let in_chain id = List.exists (fun (c : Span.t) -> c.sp_id = id) chain in
    let rest =
      Hashtbl.fold (fun _ p acc -> if in_chain p.Span.sp_id then acc else p :: acc)
        t.pinned []
      |> List.sort (fun (a : Span.t) b -> compare b.sp_id a.sp_id)
    in
    if rest <> [] then begin
      let shown = min (List.length rest) 16 in
      Printf.bprintf b "   pinned trouble spans (%d of %d):\n" shown
        (List.length rest);
      List.iteri (fun i p -> if i < shown then pp_span b ~names p) rest
    end);
  let tail = ring_newest_first t in
  let n = List.length tail in
  let shown = min n 16 in
  Printf.bprintf b "   last %d completed spans (of %d retained):\n" shown n;
  List.iteri (fun i s -> if i < shown then pp_span b ~names s) tail;
  Buffer.contents b
