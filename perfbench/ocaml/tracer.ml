(* In-memory spans for the traced run, taken from outside the program:
   the benchmark wraps its own calls into each layer's public functions.
   Spans stay in memory and reach the disk only through [write], once
   the run has ended. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  start : float; (* Unix.gettimeofday seconds *)
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        open_ids := List.tl !open_ids;
        recorded := { id; name; parent; start; stop } :: !recorded)
  end

(* Run [f] with recording on. *)
let traced f =
  enabled := true;
  Fun.protect f ~finally:(fun () -> enabled := false)

(* A layer's self time is its span's duration minus its direct
   children's.  Spans nest strictly on one domain, so children never
   overlap one another. *)
let self_ms name =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !recorded;
  1000.0
  *. List.fold_left
       (fun acc s ->
         if s.name <> name then acc
         else
           acc +. (s.stop -. s.start)
           -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id))
       0.0 !recorded

(* Chrome trace_event JSON: one complete ("X") event per span, with its
   id and parent in [args]. *)
let write path ~meta =
  let module J = Cards_util.Json in
  let spans = List.rev !recorded in
  let t0 = match spans with [] -> 0.0 | s :: _ -> s.start in
  let ev s =
    J.Obj
      [ ("name", J.Str s.name); ("ph", J.Str "X"); ("pid", J.Int 1);
        ("tid", J.Int 1); ("ts", J.Float ((s.start -. t0) *. 1e6));
        ("dur", J.Float ((s.stop -. s.start) *. 1e6));
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj [ ("traceEvents", J.List (List.map ev spans)); ("metadata", meta) ])))
