let map ~domains f xs =
  if domains < 1 then invalid_arg "Pool.map: domains must be >= 1";
  let n = Array.length xs in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then
      match f xs.(i) with
      | v ->
        out.(i) <- Some (Ok v);
        work ()
      | exception e -> out.(i) <- Some (Error e)
  in
  let helpers =
    Array.init (max 0 (min domains n - 1)) (fun _ -> Domain.spawn work)
  in
  work ();
  Array.iter Domain.join helpers;
  (* Indices are claimed in order and a claimed one always finishes, so
     this scan meets the lowest failure before any unclaimed slot. *)
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false)
    out
