module Stats = Cards_util.Stats

type buckets = {
  mutable p_hidden : int;
  lat : Stats.t;
}

type per = (int, buckets) Hashtbl.t

type t = {
  per : per;
  mutable p_compute : int;
}

let create () = { per = Hashtbl.create 16; p_compute = 0 }

let buckets t h =
  match Hashtbl.find_opt t.per h with
  | Some b -> b
  | None ->
    let b = { p_hidden = 0; lat = Stats.create () } in
    Hashtbl.replace t.per h b;
    b

let compute t = t.p_compute

let hidden t h =
  match Hashtbl.find_opt t.per h with Some b -> b.p_hidden | None -> 0

let handles t =
  List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) t.per [])

let record_latency b c = Stats.add_int b.lat c

let latency b = b.lat

(* The all-structure latency distribution: bucket-wise merge, no
   sample lists anywhere (Stats is a bounded histogram). *)
let merged_latency t =
  Hashtbl.fold (fun _ b acc -> Stats.merge acc b.lat) t.per (Stats.create ())

let merged_hist t = Stats.log2_counts (merged_latency t)
