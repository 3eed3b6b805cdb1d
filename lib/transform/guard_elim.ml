module Func = Cards_ir.Func
module Instr = Cards_ir.Instr
module Irmod = Cards_ir.Irmod
module A = Cards_analysis

type level = Lnone | Ltrackfm | Lcards

(* Per-domain, so a compile can run on any domain. *)
let removed = Domain.DLS.new_key (fun () -> ref 0)
let removed_last_run () = !(Domain.DLS.get removed)

(* ---------- address keys ---------- *)

(* Resolve an address to (root value, constant byte offset) through
   single-definition GEP chains.  Multiply-defined registers (loop
   carried pointers) stop the chain — their values are not stable. *)
let build_single_defs (f : Func.t) =
  let counts = Hashtbl.create 32 in
  let defs = Hashtbl.create 32 in
  Func.iter_instrs f (fun _ _ ins ->
      match Instr.defined_reg ins with
      | Some r ->
        Hashtbl.replace counts r (1 + Option.value (Hashtbl.find_opt counts r) ~default:0);
        Hashtbl.replace defs r ins
      | None -> ());
  fun r ->
    match Hashtbl.find_opt counts r with
    | Some 1 -> Hashtbl.find_opt defs r
    | _ -> None

let rec resolve_root single_def v =
  match v with
  | Instr.Reg r -> begin
    match single_def r with
    | Some (Instr.Gep (_, base, Instr.Imm off, scale)) ->
      let root, o = resolve_root single_def base in
      (root, o + (Int64.to_int off * scale))
    | Some (Instr.Mov (_, src)) -> resolve_root single_def src
    | _ -> (v, 0)
  end
  | _ -> (v, 0)

(* Smallest object window any instance behind this address could use;
   conservative fallback of one scalar (8 bytes) when unknown. *)
let window_of dsa ~fname addr =
  match A.Dsa.node_of_value dsa ~fname addr with
  | None -> 8
  | Some n -> begin
    match A.Dsa.node_descs dsa n with
    | [] -> 8
    | descs ->
      List.fold_left
        (fun acc id ->
          let d = A.Dsa.desc_info dsa id in
          let sz =
            if d.desc_recursive then max 8 d.desc_elem_size
            else max d.desc_elem_size 4096
          in
          min acc sz)
        max_int descs
  end

type key =
  | Ksyn of Instr.value          (* identical address value *)
  | Kobj of Instr.value * int    (* (root, offset / window) *)

let value_mentions_reg v r =
  match v with Instr.Reg x -> x = r | _ -> false

let key_mentions_reg k r =
  match k with
  | Ksyn v -> value_mentions_reg v r
  | Kobj (v, _) -> value_mentions_reg v r

(* ---------- block-local dedup ---------- *)

let dedup_block ~level dsa ~fname single_def instrs =
  (* available : key -> guard_kind already established *)
  let avail : (key, Instr.guard_kind) Hashtbl.t = Hashtbl.create 8 in
  let covers established wanted =
    match established, wanted with
    | Instr.Gwrite, _ -> true
    | Instr.Gread, Instr.Gread -> true
    | Instr.Gread, Instr.Gwrite -> false
  in
  let keys_of addr =
    let syn = Ksyn addr in
    match level with
    | Lcards ->
      let root, off = resolve_root single_def addr in
      let w = window_of dsa ~fname addr in
      [ syn; Kobj (root, if w <= 0 then off else off / w) ]
    | Ltrackfm | Lnone -> [ syn ]
  in
  let out =
    List.filter_map
      (fun ins ->
        match ins with
        | Instr.Guard (k, addr) ->
          let keys = keys_of addr in
          let is_covered =
            List.exists
              (fun key ->
                match Hashtbl.find_opt avail key with
                | Some est -> covers est k
                | None -> false)
              keys
          in
          if is_covered then begin
            incr (Domain.DLS.get removed);
            None
          end
          else begin
            List.iter
              (fun key ->
                let est =
                  match Hashtbl.find_opt avail key with
                  | Some Instr.Gwrite -> Instr.Gwrite
                  | _ -> k
                in
                Hashtbl.replace avail key est)
              keys;
            Some ins
          end
        | Instr.Call _ | Instr.Malloc _ | Instr.DsAlloc _ | Instr.Free _ ->
          (* may allocate/evict: all prior localizations are suspect *)
          Hashtbl.reset avail;
          Some ins
        | _ ->
          (match Instr.defined_reg ins with
           | Some r ->
             let stale =
               Hashtbl.fold
                 (fun k _ acc -> if key_mentions_reg k r then k :: acc else acc)
                 avail []
             in
             List.iter (Hashtbl.remove avail) stale
           | None -> ());
          Some ins)
      instrs
  in
  out

(* ---------- loop-invariant hoisting ---------- *)

(* A guard's address is hoistable when it is computed, inside the loop,
   purely from loop-invariant leaves through a chain of single-def
   Gep/Mov instructions — the non-induction-variable case the paper
   credits CaRDS with ("guard optimizations apply to non-induction
   variables as well").  Returns the chain of defining instructions
   (in dependency order) that must be replayed in the preheader so the
   address register holds its value there; [Some []] means the address
   is directly invariant. *)
let invariant_chain cfg loop single_def addr =
  let rec chain v acc depth =
    if depth > 16 then None
    else if A.Indvars.loop_invariant cfg loop v then Some acc
    else
      match v with
      | Instr.Reg r -> begin
        match single_def r with
        | Some (Instr.Gep (_, base, idx, _) as ins) -> begin
          match chain base acc (depth + 1) with
          | Some acc -> begin
            match chain idx acc (depth + 1) with
            | Some acc -> Some (ins :: acc)
            | None -> None
          end
          | None -> None
        end
        | Some (Instr.Mov (_, src) as ins) -> begin
          match chain src acc (depth + 1) with
          | Some acc -> Some (ins :: acc)
          | None -> None
        end
        | _ -> None
      end
      | _ -> None
  in
  Option.map List.rev (chain addr [] 0)

(* One hoisting round; returns true if anything moved. *)
let hoist_round rw =
  let f = Rewrite.finish rw in
  let cfg = A.Cfg.of_func f in
  let dom = A.Dominators.compute cfg in
  let loops = A.Loops.compute cfg dom in
  let ls = A.Loops.loops loops in
  let single_def = build_single_defs f in
  let moved = ref false in
  (* Deepest loops first so guards bubble outward one level at a time. *)
  let order = Array.init (Array.length ls) (fun i -> i) in
  Array.sort (fun a b -> compare ls.(b).A.Loops.depth ls.(a).A.Loops.depth) order;
  Array.iter
    (fun li ->
      let loop = ls.(li) in
      if loop.A.Loops.header <> 0 then begin
        let hoistable = ref [] in
        Cards_util.Bitset.iter
          (fun bid ->
            let keep =
              List.filter
                (fun ins ->
                  match ins with
                  | Instr.Guard (_, addr) -> begin
                    match invariant_chain cfg loop single_def addr with
                    | Some chain ->
                      hoistable := (chain, ins) :: !hoistable;
                      false
                    | None -> true
                  end
                  | _ -> true)
                (Rewrite.instrs rw bid)
            in
            Rewrite.set_instrs rw bid keep)
          loop.A.Loops.body;
        match List.rev !hoistable with
        | [] -> ()
        | picked ->
          (* Replay each address chain (deduplicated) then the guards. *)
          let seen = Hashtbl.create 8 in
          let gs =
            List.concat_map
              (fun (chain, g) ->
                let replay =
                  List.filter
                    (fun ins ->
                      if Hashtbl.mem seen ins then false
                      else begin
                        Hashtbl.replace seen ins ();
                        true
                      end)
                    chain
                in
                replay @ [ g ])
              picked
          in
          moved := true;
          (* Reuse an existing preheader or synthesize one. *)
          (match A.Loops.preheader cfg loop with
           | Some p -> Rewrite.set_instrs rw p (Rewrite.instrs rw p @ gs)
           | None ->
             let ph = Rewrite.add_block rw gs (Instr.Br loop.A.Loops.header) in
             for b = 0 to Rewrite.nblocks rw - 1 do
               if b <> ph && not (Cards_util.Bitset.mem loop.A.Loops.body b) then begin
                 let retarget s = if s = loop.A.Loops.header then ph else s in
                 Rewrite.set_term rw b
                   (match Rewrite.term rw b with
                    | Instr.Br s -> Instr.Br (retarget s)
                    | Instr.Cbr (v, a, c) -> Instr.Cbr (v, retarget a, retarget c)
                    | t -> t)
               end
             done)
      end)
    order;
  !moved

let transform_func ~level dsa (f : Func.t) =
  let fname = f.name in
  let rw = Rewrite.of_func f in
  if level = Lcards then begin
    let guard = ref 0 in
    while hoist_round rw && !guard < 8 do incr guard done
  end;
  (* Dedup within blocks (single-def map recomputed on current body). *)
  let cur = Rewrite.finish rw in
  let single_def = build_single_defs cur in
  let rw = Rewrite.of_func cur in
  if level <> Lnone then
    for bid = 0 to Rewrite.nblocks rw - 1 do
      Rewrite.set_instrs rw bid
        (dedup_block ~level dsa ~fname single_def (Rewrite.instrs rw bid))
    done;
  Rewrite.finish rw

let run (m : Irmod.t) dsa ~level =
  Domain.DLS.get removed := 0;
  let m' = Irmod.replace_funcs m (List.map (transform_func ~level dsa) m.funcs) in
  Cards_ir.Verify.check_exn m';
  m'
