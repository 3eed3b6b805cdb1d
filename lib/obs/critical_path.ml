type phase_split = {
  cp_queued : int;
  cp_proto : int;
  cp_wire : int;
  cp_retry : int;
  cp_pf_wait : int;
  cp_trap : int;
}

type report = {
  r_chain : Span.t list;
  r_chain_stall : int;
  r_phases : phase_split;
  r_by_ds : (int * int) list;
  r_span_count : int;
  r_end : int;
}

let analyze c =
  (* Marks have no phases and no parent: they neither extend a chain
     nor start one, and a Call closes after the fetches it contains. *)
  let spans =
    Span.spans c
    |> List.filter (fun (s : Span.t) -> not (Span.is_mark s.sp_kind))
    |> List.sort (fun (a : Span.t) b -> compare a.sp_id b.sp_id)
  in
  if spans = [] then None
  else begin
    let n = List.length spans in
    let by_id = Hashtbl.create n in
    (* chain_cost(s) = stall(s) + chain_cost(parent); parents have
       smaller ids, so the sorted forward pass sees them first. *)
    let cost = Hashtbl.create n in
    let best = ref (-1) and best_cost = ref (-1) and last = ref 0 in
    List.iter
      (fun (s : Span.t) ->
        Hashtbl.replace by_id s.sp_id s;
        let parent_cost =
          match Hashtbl.find_opt cost s.sp_parent with
          | Some pc -> pc
          | None -> 0
        in
        let ch = Span.stall s + parent_cost in
        Hashtbl.replace cost s.sp_id ch;
        if ch > !best_cost then begin
          best_cost := ch;
          best := s.sp_id
        end;
        if s.sp_complete > !last then last := s.sp_complete)
      spans;
    (* Walk the winner back to its root. *)
    let rec chain acc id =
      match Hashtbl.find_opt by_id id with
      | None -> acc
      | Some s -> chain (s :: acc) s.sp_parent
    in
    let ch = chain [] !best in
    let ph =
      List.fold_left
        (fun p (s : Span.t) ->
          { cp_queued = p.cp_queued + s.sp_queued;
            cp_proto = p.cp_proto + s.sp_proto;
            cp_wire = p.cp_wire + s.sp_wire;
            cp_retry = p.cp_retry + s.sp_retry;
            cp_pf_wait = p.cp_pf_wait + s.sp_pf_wait;
            cp_trap = p.cp_trap + s.sp_trap })
        { cp_queued = 0; cp_proto = 0; cp_wire = 0;
          cp_retry = 0; cp_pf_wait = 0; cp_trap = 0 }
        ch
    in
    let ds_tbl = Hashtbl.create 8 in
    List.iter
      (fun (s : Span.t) ->
        let prev =
          match Hashtbl.find_opt ds_tbl s.sp_ds with Some v -> v | None -> 0
        in
        Hashtbl.replace ds_tbl s.sp_ds (prev + Span.stall s))
      ch;
    let by_ds =
      Hashtbl.fold (fun ds v acc -> (ds, v) :: acc) ds_tbl []
      |> List.sort (fun (da, a) (db, b) ->
             if a <> b then compare b a else compare da db)
    in
    Some
      { r_chain = ch;
        r_chain_stall = !best_cost;
        r_phases = ph;
        r_by_ds = by_ds;
        r_span_count = n;
        r_end = !last }
  end
