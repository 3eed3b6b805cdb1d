(* Per-pass compile timing: replay Pipeline.compile's sequence of
   public calls with one span around each.  The numbers only describe
   Pipeline.compile if the replay builds the same module and the same
   descriptor table, which [matches] checks. *)

module P = Cards.Pipeline
module A = Cards_analysis
module T = Cards_transform
module R = Cards_runtime
module Irmod = Cards_ir.Irmod

type t = {
  instrumented : Irmod.t;
  infos : R.Static_info.t array;
  source_instrs : int;
  static_guards : int;
  guards_removed : int;
  versioned_loops : int;
}

let span = Tracer.span

let to_rt_class = function
  | T.Prefetch_hints.No_prefetch -> R.Static_info.No_prefetch
  | T.Prefetch_hints.Stride -> R.Static_info.Stride
  | T.Prefetch_hints.Greedy_recursive -> R.Static_info.Greedy_recursive
  | T.Prefetch_hints.Jump_pointer -> R.Static_info.Jump_pointer

let static_table m dsa =
  let use = A.Scores.max_use m dsa in
  let reach = A.Scores.max_reach m dsa in
  Array.of_list
    (List.map
       (fun (d : A.Dsa.desc_info) ->
         { R.Static_info.sid = d.desc_id;
           name = Printf.sprintf "%s#%d" d.desc_init_func d.desc_id;
           obj_size = T.Prefetch_hints.object_size d;
           prefetch = to_rt_class (T.Prefetch_hints.classify d);
           score_use = use.(d.desc_id);
           score_reach = reach.(d.desc_id);
           recursive = d.desc_recursive;
           elem_size = d.desc_elem_size })
       (A.Dsa.descriptors dsa))

let count_instrs (m : Irmod.t) =
  List.fold_left
    (fun acc (f : Cards_ir.Func.t) ->
      Array.fold_left
        (fun a (b : Cards_ir.Func.block) -> a + Array.length b.instrs)
        acc f.blocks)
    0 m.funcs

let dsa m = span "analysis.dsa" (fun () -> A.Dsa.analyze m)

let run ~(options : P.options) src =
  span "compile" (fun () ->
      let m = span "ir.frontend" (fun () -> Cards_ir.Minic.compile src) in
      span "ir.verify" (fun () -> Cards_ir.Verify.check_exn m);
      let source_instrs = count_instrs m in
      let m =
        if options.presimplify then
          span "transform.simplify" (fun () -> T.Simplify.run m)
        else m
      in
      let m =
        if options.factorize then begin
          let d = dsa m in
          span "transform.factorize" (fun () -> T.Factorize.run m d)
        end
        else m
      in
      let dsa1 = dsa m in
      let infos = span "transform.static_table" (fun () -> static_table m dsa1) in
      let pooled = span "transform.pool_alloc" (fun () -> T.Pool_alloc.run m dsa1) in
      let dsa2 = dsa pooled in
      let guarded = span "transform.guards" (fun () -> T.Guards.run pooled dsa2) in
      let dsa3 = dsa guarded in
      let slimmed =
        span "transform.guard_elim" (fun () ->
            T.Guard_elim.run guarded dsa3 ~level:options.guard_elim_level)
      in
      let guards_removed = T.Guard_elim.removed_last_run () in
      let final, versioned_loops =
        if options.versioning then begin
          let dsa4 = dsa slimmed in
          let v = span "transform.versioning" (fun () -> T.Versioning.run slimmed dsa4) in
          (v, T.Versioning.versioned_loops_last_run ())
        end
        else (slimmed, 0)
      in
      { instrumented = final; infos; source_instrs;
        static_guards = T.Guards.count_guards final; guards_removed;
        versioned_loops })

let matches (c : P.compiled) r =
  Cards_ir.Printer.module_to_string c.P.instrumented
  = Cards_ir.Printer.module_to_string r.instrumented
  && c.P.infos = r.infos
  && c.P.static_guards = r.static_guards
  && c.P.guards_removed = r.guards_removed
  && c.P.versioned_loops = r.versioned_loops

(* The ir, analysis and transform layers' metrics over every replay the
   run made (one per compiled program). *)
let metrics rs =
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let ms = Tracer.self_ms in
  let open Measure in
  [ m "ir.frontend_ms" "ms" (ms "ir.frontend");
    m "ir.instrs" "count" (sum (fun r -> r.source_instrs));
    m "analysis.dsa_ms" "ms" (ms "analysis.dsa");
    m "analysis.structures" "count" (sum (fun r -> Array.length r.infos));
    m "transform.factorize_ms" "ms" (ms "transform.factorize");
    m "transform.pool_alloc_ms" "ms" (ms "transform.pool_alloc");
    m "transform.guards_ms" "ms" (ms "transform.guards");
    m "transform.guard_elim_ms" "ms" (ms "transform.guard_elim");
    m "transform.versioning_ms" "ms" (ms "transform.versioning");
    m "transform.static_guards" "count" (sum (fun r -> r.static_guards));
    m "transform.guards_removed" "count" (sum (fun r -> r.guards_removed));
    m "transform.versioned_loops" "count" (sum (fun r -> r.versioned_loops)) ]
