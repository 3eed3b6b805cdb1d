module Func = Cards_ir.Func
module Instr = Cards_ir.Instr
module Types = Cards_ir.Types
module Irmod = Cards_ir.Irmod
module Bitset = Cards_util.Bitset
module A = Cards_analysis

let clean_suffix = "__clean"

(* Per-domain, so a compile can run on any domain. *)
let versioned = Domain.DLS.new_key (fun () -> ref 0)
let versioned_loops_last_run () = !(Domain.DLS.get versioned)

(* ---------- transitive function facts ---------- *)

let transitive_flag m cg ~local_flag =
  let tbl = Hashtbl.create 16 in
  let get f = Option.value (Hashtbl.find_opt tbl f) ~default:false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun scc ->
        List.iter
          (fun fname ->
            let f = Irmod.find_func m fname in
            let v =
              local_flag f
              || List.exists get (A.Callgraph.callees cg fname)
            in
            if v <> get fname then begin
              Hashtbl.replace tbl fname v;
              changed := true
            end)
          scc)
      (A.Callgraph.bottom_up cg)
  done;
  get

let has_guard (f : Func.t) =
  Func.fold_instrs f
    (fun acc _ _ ins -> acc || match ins with Instr.Guard _ -> true | _ -> false)
    false

let has_alloc (f : Func.t) =
  Func.fold_instrs f
    (fun acc _ _ ins ->
      acc || match ins with Instr.Malloc _ | Instr.DsAlloc _ -> true | _ -> false)
    false

(* ---------- clean function bodies ---------- *)

let strip_and_redirect ~has_clean (f : Func.t) ~rename =
  let map_block (b : Func.block) =
    let instrs =
      Array.of_list
        (List.filter_map
           (fun ins ->
             match ins with
             | Instr.Guard _ -> None
             | Instr.Call (r, callee, args) when has_clean callee ->
               Some (Instr.Call (r, callee ^ clean_suffix, args))
             | _ -> Some ins)
           (Array.to_list b.instrs))
    in
    { b with Func.instrs }
  in
  let f' = Func.map_blocks f map_block in
  { f' with Func.name = rename f.Func.name }

(* ---------- per-loop versioning ---------- *)

(* Loop-invariant pointer values available to name each accessed node. *)
let find_check_bases dsa cfg (f : Func.t) (loop : A.Loops.loop) nodes =
  let fname = f.Func.name in
  (* Candidate values: pointer-typed params and every pointer value
     operand mentioned in the loop that is loop-invariant. *)
  let candidates = ref [] in
  let consider v =
    match v with
    | Instr.Reg r
      when Types.is_pointer f.reg_tys.(r) && A.Indvars.loop_invariant cfg loop v ->
      candidates := v :: !candidates
    | _ -> ()
  in
  List.iter (fun (r, ty) -> if Types.is_pointer ty then consider (Instr.Reg r)) f.params;
  Func.iter_instrs f (fun bid _ ins ->
      if Bitset.mem loop.A.Loops.body bid then
        List.iter consider (Instr.used_values ins));
  let candidates = List.sort_uniq compare !candidates in
  let base_for n =
    List.find_opt
      (fun v ->
        match A.Dsa.node_of_value dsa ~fname v with
        | Some n' -> A.Dsa.canonical dsa n' = n
        | None -> false)
      candidates
  in
  let rec collect acc = function
    | [] -> Some (List.sort_uniq compare acc)
    | n :: rest -> begin
      match base_for n with
      | Some v -> collect (v :: acc) rest
      | None -> None
    end
  in
  collect [] nodes

(* Heap nodes the loop may touch; [None] if unversionable. *)
let loop_accessed_nodes m dsa ~no_alloc (f : Func.t) (loop : A.Loops.loop) =
  let fname = f.Func.name in
  let nodes = ref [] in
  let ok = ref true in
  Func.iter_instrs f (fun bid idx ins ->
      if Bitset.mem loop.A.Loops.body bid then
        match ins with
        | Instr.Malloc _ | Instr.DsAlloc _ -> ok := false
        | Instr.Load (_, _, addr) | Instr.Store (_, addr, _) ->
          if A.Dsa.value_is_managed dsa ~fname addr then begin
            match A.Dsa.node_of_value dsa ~fname addr with
            | Some n -> nodes := A.Dsa.canonical dsa n :: !nodes
            | None -> ok := false
          end
        | Instr.Call (_, callee, _) when Irmod.has_func m callee ->
          if not (no_alloc callee) then ok := false
          else begin
            let caller_nodes, hidden =
              A.Dsa.callsite_accessed_nodes dsa ~fname ~bid ~idx
            in
            if hidden <> [] then ok := false
            else
              nodes :=
                List.map (A.Dsa.canonical dsa) caller_nodes @ !nodes
          end
        | _ -> ());
  if !ok then Some (List.sort_uniq compare !nodes) else None

let version_loops m dsa ~no_alloc ~has_clean (f : Func.t) =
  let cfg = A.Cfg.of_func f in
  let dom = A.Dominators.compute cfg in
  let loops = A.Loops.compute cfg dom in
  let ls = A.Loops.loops loops in
  let outer =
    Array.to_list ls |> List.filter (fun l -> l.A.Loops.parent = None)
  in
  if outer = [] then f
  else begin
    let rw = Rewrite.of_func f in
    List.iter
      (fun (loop : A.Loops.loop) ->
        if loop.A.Loops.header <> 0 then begin
          match loop_accessed_nodes m dsa ~no_alloc f loop with
          | None -> ()
          | Some [] -> () (* nothing managed: versioning pointless *)
          | Some nodes -> begin
            match find_check_bases dsa cfg f loop nodes with
            | None -> ()
            | Some bases ->
              incr (Domain.DLS.get versioned);
              (* Clone the loop body: clean copy. *)
              let mapping = Hashtbl.create 8 in
              Bitset.iter
                (fun bid ->
                  let nb = Rewrite.add_block rw [] Instr.Unreachable in
                  Hashtbl.replace mapping bid nb)
                loop.A.Loops.body;
              let remap b = Option.value (Hashtbl.find_opt mapping b) ~default:b in
              Bitset.iter
                (fun bid ->
                  let nb = Hashtbl.find mapping bid in
                  let clean_instrs =
                    List.filter_map
                      (fun ins ->
                        match ins with
                        | Instr.Guard _ -> None
                        | Instr.Call (r, callee, args) when has_clean callee ->
                          Some (Instr.Call (r, callee ^ clean_suffix, args))
                        | _ -> Some ins)
                      (Rewrite.instrs rw bid)
                  in
                  Rewrite.set_instrs rw nb clean_instrs;
                  Rewrite.set_term rw nb
                    (match Rewrite.term rw bid with
                     | Instr.Br s -> Instr.Br (remap s)
                     | Instr.Cbr (v, a, b) -> Instr.Cbr (v, remap a, remap b)
                     | t -> t))
                loop.A.Loops.body;
              (* Dispatch block: LoopCheck then branch. *)
              let chk = Rewrite.fresh_reg rw Types.I64 in
              let clean_header = Hashtbl.find mapping loop.A.Loops.header in
              let dispatch =
                Rewrite.add_block rw
                  [ Instr.LoopCheck (chk, bases) ]
                  (Instr.Cbr (Instr.Reg chk, clean_header, loop.A.Loops.header))
              in
              (* Retarget out-of-loop entries of the header to dispatch. *)
              for b = 0 to Rewrite.nblocks rw - 1 do
                if
                  b <> dispatch
                  && not (Bitset.mem loop.A.Loops.body b)
                  && not (Hashtbl.mem mapping b)
                  && (match Hashtbl.fold (fun _ nb acc -> acc || nb = b) mapping false with
                      | cloned -> not cloned)
                then begin
                  let retarget s = if s = loop.A.Loops.header then dispatch else s in
                  Rewrite.set_term rw b
                    (match Rewrite.term rw b with
                     | Instr.Br s -> Instr.Br (retarget s)
                     | Instr.Cbr (v, a, c) -> Instr.Cbr (v, retarget a, retarget c)
                     | t -> t)
                end
              done
          end
        end)
      outer;
    Rewrite.finish rw
  end

let run (m : Irmod.t) dsa =
  Domain.DLS.get versioned := 0;
  let cg = A.Callgraph.compute m in
  let guard_bearing = transitive_flag m cg ~local_flag:has_guard in
  let allocates = transitive_flag m cg ~local_flag:has_alloc in
  let no_alloc f = not (allocates f) in
  let has_clean f =
    Irmod.has_func m f && guard_bearing f && no_alloc f
  in
  (* Clean versions of eligible functions. *)
  let clean_funcs =
    List.filter_map
      (fun (f : Func.t) ->
        if has_clean f.name then
          Some (strip_and_redirect ~has_clean f ~rename:(fun n -> n ^ clean_suffix))
        else None)
      m.funcs
  in
  (* Version loops in the original functions (not in clean copies —
     they are already clean). *)
  let originals =
    List.map (version_loops m dsa ~no_alloc ~has_clean) m.funcs
  in
  let m' = Irmod.replace_funcs m (originals @ clean_funcs) in
  Cards_ir.Verify.check_exn m';
  m'
