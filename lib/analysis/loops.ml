module Bitset = Cards_util.Bitset

type loop = {
  header : int;
  body : Bitset.t;
  back_edges : int list;
  depth : int;
  parent : int option;
}

type t = {
  loops : loop array;
  innermost : int array; (* block -> loop index or -1 *)
}

let natural_loop cfg ~header ~latch =
  let n = Cfg.nblocks cfg in
  let rpo_idx = Cfg.rpo_index cfg in
  let body = Bitset.create n in
  Bitset.add body header;
  (* Walk predecessors back from the latch, staying within blocks
     reachable from the entry — an unreachable block that happens to
     branch into the loop is not part of it. *)
  let rec pull b =
    if rpo_idx.(b) >= 0 && not (Bitset.mem body b) then begin
      Bitset.add body b;
      List.iter pull (Cfg.preds cfg b)
    end
  in
  pull latch;
  body

let compute cfg dom =
  let n = Cfg.nblocks cfg in
  (* Collect back edges grouped by header. *)
  let by_header = Hashtbl.create 8 in
  let rpo_idx = Cfg.rpo_index cfg in
  for b = 0 to n - 1 do
    List.iter
      (fun s ->
        if rpo_idx.(b) >= 0 && Dominators.dominates dom s b then begin
          let old = Option.value (Hashtbl.find_opt by_header s) ~default:[] in
          Hashtbl.replace by_header s (b :: old)
        end)
      (Cfg.succs cfg b)
  done;
  let raw =
    Hashtbl.fold
      (fun header latches acc ->
        let body =
          List.fold_left
            (fun acc latch ->
              let bl = natural_loop cfg ~header ~latch in
              ignore (Bitset.union_into acc bl);
              acc)
            (Bitset.create n) latches
        in
        (header, body, latches) :: acc)
      by_header []
  in
  (* Sort by body size descending so parents precede children. *)
  let raw =
    List.sort
      (fun (_, a, _) (_, b, _) -> compare (Bitset.cardinal b) (Bitset.cardinal a))
      raw
  in
  let raw = Array.of_list raw in
  let nl = Array.length raw in
  let parent = Array.make nl None in
  for i = 0 to nl - 1 do
    let _, body_i, _ = raw.(i) in
    (* The innermost enclosing loop is the smallest strictly-larger loop
       containing this loop's header. *)
    let best = ref None in
    for j = 0 to nl - 1 do
      if j <> i then begin
        let hi, _, _ = raw.(i) in
        let _, body_j, _ = raw.(j) in
        if Bitset.mem body_j hi && Bitset.cardinal body_j > Bitset.cardinal body_i then begin
          match !best with
          | None -> best := Some j
          | Some k ->
            let _, body_k, _ = raw.(k) in
            if Bitset.cardinal body_j < Bitset.cardinal body_k then best := Some j
        end
      end
    done;
    parent.(i) <- !best
  done;
  let rec depth_of i =
    match parent.(i) with None -> 1 | Some p -> 1 + depth_of p
  in
  let loops =
    Array.init nl (fun i ->
        let header, body, back_edges = raw.(i) in
        { header; body; back_edges; depth = depth_of i; parent = parent.(i) })
  in
  let innermost = Array.make n (-1) in
  (* Visit loops from outermost to innermost so inner loops overwrite. *)
  let order = Array.init nl (fun i -> i) in
  Array.sort (fun a b -> compare loops.(a).depth loops.(b).depth) order;
  Array.iter
    (fun li -> Bitset.iter (fun b -> innermost.(b) <- li) loops.(li).body)
    order;
  { loops; innermost }

let loops t = t.loops

let loop_of_block t b = if t.innermost.(b) = -1 then None else Some t.innermost.(b)

let preheader cfg loop =
  let outside_preds =
    List.filter (fun p -> not (Bitset.mem loop.body p)) (Cfg.preds cfg loop.header)
  in
  match outside_preds with
  | [ p ] -> begin
    match Cfg.succs cfg p with
    | [ s ] when s = loop.header -> Some p
    | _ -> None
  end
  | _ -> None
