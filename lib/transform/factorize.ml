module Func = Cards_ir.Func
module Instr = Cards_ir.Instr
module Types = Cards_ir.Types
module Irmod = Cards_ir.Irmod
module Dsa = Cards_analysis.Dsa
module Field_counts = Cards_analysis.Field_counts
module Cfg = Cards_analysis.Cfg
module Dominators = Cards_analysis.Dominators
module Loops = Cards_analysis.Loops
module Bitset = Cards_util.Bitset
module ISet = Set.Make (Int)

let chunk_bits = 10
let chunk = 1 lsl chunk_bits
let dir_slots = 1024

(* A field is hot when it draws at least a quarter of the hottest
   field's estimated accesses; pointer fields and field 0 are always
   hot (pointer fields keep the chase on the hot node, field 0 keeps
   bare element pointers meaningful without a rewrite). *)
let hot_ratio = 4.0

let pow2_ceil n =
  let r = ref 8 in
  while !r < n do
    r := !r * 2
  done;
  !r

type layout =
  | L_split of {
      elem : int;                      (* original record bytes *)
      hot_map : (int * int) list;      (* old offset -> new hot offset *)
      cold_map : (int * int) list;     (* old offset -> offset in cold record *)
      idx_off : int;                   (* index slot in the new hot record *)
      hot_size : int;
      cold_size : int;
      g_dir : string;
      g_cnt : string;
    }
  | L_soa of { elem : int; g_stride : string }

type counters = { mutable splits : int; mutable soa : int }

(* Per-domain, so a compile can run on any domain. *)
let last = Domain.DLS.new_key (fun () -> { splits = 0; soa = 0 })
let splits_last_run () = (Domain.DLS.get last).splits
let soa_last_run () = (Domain.DLS.get last).soa

(* ---------- fact gathering ---------- *)

type site = {
  s_fname : string;
  s_bid : int;
  s_idx : int;
  s_size : Instr.value;
  s_depth : int;                       (* loop nesting of the site *)
  s_descs : int list;
}

type facts = {
  bad : bool array;                    (* desc disqualified outright *)
  offs : ISet.t array;                 (* constant field offsets accessed *)
  ptr_offs : ISet.t array;             (* offsets accessed with pointer type *)
  scales : ISet.t array;               (* scaled-gep scales seen *)
  mutable sites : site list;
  dsets : (int list, unit) Hashtbl.t;  (* descriptor sets seen at sites *)
}

let descs_of dsa fname v =
  match v with
  | Instr.Reg _ | Instr.GlobalAddr _ -> begin
    match Dsa.node_of_value dsa ~fname v with
    | Some n -> Dsa.node_descs dsa n
    | None -> []
  end
  | Instr.Imm _ | Instr.Fimm _ | Instr.Null -> []

let mark_bad facts ds = List.iter (fun d -> facts.bad.(d) <- true) ds

let note_dset facts ds =
  if ds <> [] then Hashtbl.replace facts.dsets (List.sort_uniq compare ds) ()

let gather (m : Irmod.t) dsa =
  let n = Dsa.n_descriptors dsa in
  let facts =
    { bad = Array.make n false;
      offs = Array.make n ISet.empty;
      ptr_offs = Array.make n ISet.empty;
      scales = Array.make n ISet.empty;
      sites = [];
      dsets = Hashtbl.create 32 }
  in
  List.iter
    (fun (f : Func.t) ->
      let fname = f.name in
      let cfg = Cfg.of_func f in
      let dom = Dominators.compute cfg in
      let ls = Loops.loops (Loops.compute cfg dom) in
      let depth_of bid =
        Array.fold_left
          (fun acc (l : Loops.loop) ->
            if Bitset.mem l.body bid then acc + 1 else acc)
          0 ls
      in
      let defs = Hashtbl.create 64 in
      Func.iter_instrs f (fun _ _ ins ->
          match Instr.defined_reg ins with
          | Some r -> Hashtbl.replace defs r ins
          | None -> ());
      (* Where inside the record does an address land, and which
         descriptors can it reach?  Offsets only ever come from the
         lowering's constant-offset geps; every other address shape is
         the element base itself (offset 0) — except an address built
         by scalar arithmetic, which no rewrite can adjust, so it
         disqualifies its descriptors. *)
      let classify_addr v =
        match v with
        | Instr.Reg r -> begin
          match Hashtbl.find_opt defs r with
          | Some (Instr.Gep (_, b, Instr.Imm off, 1)) ->
            `Field (Int64.to_int off, descs_of dsa fname b)
          | Some (Instr.Bin _ | Instr.Cmp _ | Instr.I2f _ | Instr.F2i _) ->
            `Arith (descs_of dsa fname v)
          | _ -> `Field (0, descs_of dsa fname v)
        end
        | Instr.GlobalAddr _ | Instr.Imm _ | Instr.Fimm _ | Instr.Null ->
          `Field (0, [])
      in
      Func.iter_instrs f (fun bid idx ins ->
          match ins with
          | Instr.Gep (_, b, iv, scale) ->
            let ds = descs_of dsa fname b in
            note_dset facts ds;
            if scale = 1 then begin
              match iv with
              | Instr.Imm off ->
                let off = Int64.to_int off in
                if off < 0 || off mod 8 <> 0 then mark_bad facts ds
                else
                  List.iter
                    (fun d -> facts.offs.(d) <- ISet.add off facts.offs.(d))
                    ds
              | _ -> mark_bad facts ds (* byte-granular pointer math *)
            end
            else List.iter (fun d -> facts.scales.(d) <- ISet.add scale facts.scales.(d)) ds
          | Instr.Load (_, ty, addr) | Instr.Store (ty, addr, _) -> begin
            match classify_addr addr with
            | `Arith ds -> mark_bad facts ds
            | `Field (off, ds) ->
              note_dset facts ds;
              if off < 0 || off mod 8 <> 0 then mark_bad facts ds
              else
                List.iter
                  (fun d ->
                    facts.offs.(d) <- ISet.add off facts.offs.(d);
                    if Types.is_pointer ty then
                      facts.ptr_offs.(d) <- ISet.add off facts.ptr_offs.(d))
                  ds
          end
          | Instr.Malloc (_, size) -> begin
            match Dsa.malloc_node dsa ~fname ~bid ~idx with
            | None -> ()
            | Some node ->
              let ds = Dsa.node_descs dsa node in
              note_dset facts ds;
              facts.sites <-
                { s_fname = fname; s_bid = bid; s_idx = idx; s_size = size;
                  s_depth = depth_of bid; s_descs = ds }
                :: facts.sites
          end
          | Instr.Free v -> mark_bad facts (descs_of dsa fname v)
          | _ -> ()))
    m.funcs;
  facts

(* ---------- candidate selection ---------- *)

(* SoA needs the element count at the allocation site to publish the
   column stride: either a literal total or the lowering's n * sizeof
   multiply. *)
let stride_source m fname size elem =
  match size with
  | Instr.Imm tot ->
    let tot = Int64.to_int tot in
    if tot > 0 && tot mod elem = 0 then Some (`Const (tot / elem * 8)) else None
  | Instr.Reg s -> begin
    match Irmod.find_func_opt m fname with
    | None -> None
    | Some f ->
      let def = ref None in
      Func.iter_instrs f (fun _ _ ins ->
          match ins with
          | Instr.Bin (r, Instr.Mul, x, Instr.Imm e)
            when r = s && Int64.to_int e = elem -> def := Some (`Count x)
          | Instr.Bin (r, Instr.Mul, Instr.Imm e, x)
            when r = s && Int64.to_int e = elem -> def := Some (`Count x)
          | _ -> ());
      !def
  end
  | _ -> None

(* Union-find over descriptors: descs sharing an allocation site must
   agree on one layout (context-sensitive cloning attributes a single
   malloc instruction to several descriptors). *)
let components n sites =
  let uf = Array.init n (fun i -> i) in
  let rec find i = if uf.(i) = i then i else (uf.(i) <- find uf.(i); uf.(i)) in
  List.iter
    (fun s ->
      match s.s_descs with
      | [] -> ()
      | d0 :: rest -> List.iter (fun d -> uf.(find d) <- find d0) rest)
    sites;
  Array.init n find

let plan m dsa facts counts =
  let n = Dsa.n_descriptors dsa in
  let comp = components n facts.sites in
  let members = Hashtbl.create 8 in
  for d = 0 to n - 1 do
    let c = comp.(d) in
    Hashtbl.replace members c (d :: Option.value (Hashtbl.find_opt members c) ~default:[])
  done;
  let sites_of c =
    List.filter (fun s -> List.exists (fun d -> comp.(d) = c) s.s_descs) facts.sites
  in
  let layouts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun c ds ->
      let ds = List.filter (fun d -> (Dsa.desc_info dsa d).desc_alloc_sites <> []) ds in
      if ds <> [] && not (List.exists (fun d -> facts.bad.(d)) ds) then begin
        let sites = sites_of c in
        let infos = List.map (Dsa.desc_info dsa) ds in
        let offs_u = List.fold_left (fun a d -> ISet.union a facts.offs.(d)) ISet.empty ds in
        let ptrs_u = List.fold_left (fun a d -> ISet.union a facts.ptr_offs.(d)) ISet.empty ds in
        let scales_u = List.fold_left (fun a d -> ISet.union a facts.scales.(d)) ISet.empty ds in
        let recursive = List.exists (fun i -> i.Dsa.desc_recursive) infos in
        if recursive then begin
          (* hot/cold split: fixed-size records, field-addressed only *)
          let sizes =
            List.filter_map
              (fun s -> match s.s_size with
                 | Instr.Imm v -> Some (Int64.to_int v)
                 | _ -> None)
              sites
          in
          match sizes with
          | s0 :: _
            when List.length sizes = List.length sites
                 && List.for_all (( = ) s0) sizes
                 && s0 mod 8 = 0 && s0 >= 24
                 && ISet.is_empty scales_u
                 && (ISet.is_empty offs_u || ISet.max_elt offs_u < s0) ->
            let fields = List.init (s0 / 8) (fun i -> i * 8) in
            let cnt off =
              List.fold_left (fun a d -> a +. Field_counts.count counts ~desc:d ~off)
                0.0 ds
            in
            let maxc = List.fold_left (fun a o -> Float.max a (cnt o)) 0.0 fields in
            let hot =
              List.filter
                (fun o ->
                  o = 0 || ISet.mem o ptrs_u || hot_ratio *. cnt o >= maxc)
                fields
            in
            let cold = List.filter (fun o -> not (List.mem o hot)) fields in
            let hot_size = 8 * (List.length hot + 1) in
            if cold <> [] && pow2_ceil hot_size < pow2_ceil s0 then begin
              let hot_map = List.mapi (fun i o -> (o, i * 8)) hot in
              let cold_map = List.mapi (fun i o -> (o, i * 8)) cold in
              Hashtbl.replace layouts c
                (L_split
                   { elem = s0; hot_map; cold_map;
                     idx_off = 8 * List.length hot;
                     hot_size; cold_size = 8 * List.length cold;
                     g_dir = Printf.sprintf "__cards_cold_dir_%d" c;
                     g_cnt = Printf.sprintf "__cards_cold_n_%d" c })
            end
          | _ -> ()
        end
        else begin
          (* AoS -> SoA: one flat array, one allocation site, executed
             once (main, loop depth 0) so the stride global is written
             exactly when the array exists. *)
          match sites, ISet.elements scales_u with
          | [ site ], [ elem ]
            when site.s_fname = "main" && site.s_depth = 0
                 && elem mod 8 = 0 && elem >= 16
                 && ISet.for_all (fun o -> o < elem) offs_u
                 && ISet.is_empty ptrs_u
                 && List.for_all (fun i -> i.Dsa.desc_ptr_fields = 0) infos ->
            if stride_source m site.s_fname site.s_size elem <> None then
              Hashtbl.replace layouts c
                (L_soa { elem; g_stride = Printf.sprintf "__cards_soa_stride_%d" c })
          | _ -> ()
        end
      end)
    members;
  (* Veto any candidate group that shares an access site with a
     descriptor outside the group: the rewrite would change the
     layout under an access that still uses the old offsets. *)
  let rejected = Hashtbl.create 4 in
  Hashtbl.iter
    (fun dset () ->
      let cs =
        List.sort_uniq compare
          (List.filter_map
             (fun d -> if Hashtbl.mem layouts comp.(d) then Some comp.(d) else None)
             dset)
      in
      match cs with
      | [] -> ()
      | [ c ] ->
        if List.exists (fun d -> comp.(d) <> c) dset then
          Hashtbl.replace rejected c ()
      | cs -> List.iter (fun c -> Hashtbl.replace rejected c ()) cs)
    facts.dsets;
  Hashtbl.iter (fun c () -> Hashtbl.remove layouts c) rejected;
  (comp, layouts)

(* ---------- rewriting ---------- *)

type item =
  | Plain of Instr.instr list
  | Split_alloc of { pre : Instr.instr list; cond : Instr.reg; grow : Instr.instr list }

let cold_addr rw (g_dir, idx_off, cold_size) r b cold_off =
  let fr ty = Rewrite.fresh_reg rw ty in
  let t1 = fr (Types.Ptr Types.I64) in
  let i = fr Types.I64 in
  let db = fr (Types.Ptr Types.I64) in
  let ci = fr Types.I64 in
  let t2 = fr (Types.Ptr Types.I64) in
  let cb = fr (Types.Ptr Types.I64) in
  let sl = fr Types.I64 in
  let t3 = fr (Types.Ptr Types.I64) in
  [ Instr.Gep (t1, b, Instr.Imm (Int64.of_int idx_off), 1);
    Instr.Load (i, Types.I64, Instr.Reg t1);
    Instr.Load (db, Types.Ptr Types.I64, Instr.GlobalAddr g_dir);
    Instr.Bin (ci, Instr.Shr, Instr.Reg i, Instr.Imm (Int64.of_int chunk_bits));
    Instr.Gep (t2, Instr.Reg db, Instr.Reg ci, 8);
    Instr.Load (cb, Types.Ptr Types.I64, Instr.Reg t2);
    Instr.Bin (sl, Instr.And, Instr.Reg i, Instr.Imm (Int64.of_int (chunk - 1)));
    Instr.Gep (t3, Instr.Reg cb, Instr.Reg sl, cold_size);
    Instr.Gep (r, Instr.Reg t3, Instr.Imm (Int64.of_int cold_off), 1) ]

let split_alloc rw (g_dir, g_cnt, idx_off, hot_size, cold_size) r =
  let fr ty = Rewrite.fresh_reg rw ty in
  let n = fr Types.I64 in
  let ti = fr (Types.Ptr Types.I64) in
  let n1 = fr Types.I64 in
  let sl = fr Types.I64 in
  let c = fr Types.I64 in
  let ck = fr (Types.Ptr Types.I64) in
  let db = fr (Types.Ptr Types.I64) in
  let ci = fr Types.I64 in
  let t2 = fr (Types.Ptr Types.I64) in
  Split_alloc
    { pre =
        [ Instr.Malloc (r, Instr.Imm (Int64.of_int hot_size));
          Instr.Load (n, Types.I64, Instr.GlobalAddr g_cnt);
          Instr.Gep (ti, Instr.Reg r, Instr.Imm (Int64.of_int idx_off), 1);
          Instr.Store (Types.I64, Instr.Reg ti, Instr.Reg n);
          Instr.Bin (n1, Instr.Add, Instr.Reg n, Instr.Imm 1L);
          Instr.Store (Types.I64, Instr.GlobalAddr g_cnt, Instr.Reg n1);
          Instr.Bin (sl, Instr.And, Instr.Reg n, Instr.Imm (Int64.of_int (chunk - 1)));
          Instr.Cmp (c, Instr.Eq, Instr.Reg sl, Instr.Imm 0L) ];
      cond = c;
      grow =
        [ Instr.Malloc (ck, Instr.Imm (Int64.of_int (chunk * cold_size)));
          Instr.Load (db, Types.Ptr Types.I64, Instr.GlobalAddr g_dir);
          Instr.Bin (ci, Instr.Shr, Instr.Reg n, Instr.Imm (Int64.of_int chunk_bits));
          Instr.Gep (t2, Instr.Reg db, Instr.Reg ci, 8);
          Instr.Store (Types.Ptr Types.I64, Instr.Reg t2, Instr.Reg ck) ] }

let rewrite_func m dsa comp layouts (f : Func.t) =
  let fname = f.name in
  let rw = Rewrite.of_func f in
  let layout_of ds =
    List.find_map
      (fun d -> Hashtbl.find_opt layouts comp.(d))
      (List.filter (fun d -> d < Array.length comp) ds)
  in
  let nb = Rewrite.nblocks rw in
  for bid = 0 to nb - 1 do
    let items =
      List.mapi
        (fun idx ins ->
          match ins with
          | Instr.Gep (r, b, Instr.Imm off64, 1) -> begin
            let off = Int64.to_int off64 in
            match layout_of (descs_of dsa fname b) with
            | Some (L_split l) -> begin
              match List.assoc_opt off l.hot_map with
              | Some noff -> Plain [ Instr.Gep (r, b, Instr.Imm (Int64.of_int noff), 1) ]
              | None ->
                let coff = List.assoc off l.cold_map in
                Plain (cold_addr rw (l.g_dir, l.idx_off, l.cold_size) r b coff)
            end
            | Some (L_soa l) when off > 0 ->
              let st = Rewrite.fresh_reg rw Types.I64 in
              Plain
                [ Instr.Load (st, Types.I64, Instr.GlobalAddr l.g_stride);
                  Instr.Gep (r, b, Instr.Reg st, off / 8) ]
            | _ -> Plain [ ins ]
          end
          | Instr.Gep (r, b, iv, scale) when scale > 1 -> begin
            match layout_of (descs_of dsa fname b) with
            | Some (L_soa l) when scale = l.elem -> Plain [ Instr.Gep (r, b, iv, 8) ]
            | _ -> Plain [ ins ]
          end
          | Instr.Malloc (r, size) -> begin
            let ds =
              match Dsa.malloc_node dsa ~fname ~bid ~idx with
              | Some node -> Dsa.node_descs dsa node
              | None -> []
            in
            match layout_of ds with
            | Some (L_split l) ->
              split_alloc rw (l.g_dir, l.g_cnt, l.idx_off, l.hot_size, l.cold_size) r
            | Some (L_soa l) -> begin
              let st = Rewrite.fresh_reg rw Types.I64 in
              match stride_source m fname size l.elem with
              | Some (`Const stride) ->
                Plain
                  [ ins; Instr.Mov (st, Instr.Imm (Int64.of_int stride));
                    Instr.Store (Types.I64, Instr.GlobalAddr l.g_stride, Instr.Reg st) ]
              | Some (`Count x) ->
                Plain
                  [ ins; Instr.Bin (st, Instr.Mul, x, Instr.Imm 8L);
                    Instr.Store (Types.I64, Instr.GlobalAddr l.g_stride, Instr.Reg st) ]
              | None -> Plain [ ins ] (* vetted at plan time; never hit *)
            end
            | None -> Plain [ ins ]
          end
          | _ -> Plain [ ins ])
        (Rewrite.instrs rw bid)
    in
    (* Lay the block back out.  Each Split_alloc ends its block with a
       chunk-boundary test branching to a grow block, then control
       rejoins in a continuation holding the rest of the original
       instructions (and, for the last continuation, the original
       terminator). *)
    let orig_term = Rewrite.term rw bid in
    let rec lay cur acc = function
      | [] ->
        Rewrite.set_instrs rw cur (List.concat (List.rev acc));
        Rewrite.set_term rw cur orig_term
      | Plain is :: rest -> lay cur (is :: acc) rest
      | Split_alloc { pre; cond; grow } :: rest ->
        let cont = Rewrite.add_block rw [] (Instr.Br 0) in
        let gblk = Rewrite.add_block rw grow (Instr.Br cont) in
        Rewrite.set_instrs rw cur (List.concat (List.rev (pre :: acc)));
        Rewrite.set_term rw cur (Instr.Cbr (Instr.Reg cond, gblk, cont));
        lay cont [] rest
    in
    lay bid [] items
  done;
  (* Side-pool directories are allocated once, at the top of main. *)
  if fname = "main" then begin
    let inits =
      Hashtbl.fold
        (fun _ l acc ->
          match l with
          | L_split { g_dir; _ } ->
            let dr = Rewrite.fresh_reg rw (Types.Ptr Types.I64) in
            Instr.Malloc (dr, Instr.Imm (Int64.of_int (dir_slots * 8)))
            :: Instr.Store (Types.Ptr Types.I64, Instr.GlobalAddr g_dir, Instr.Reg dr)
            :: acc
          | L_soa _ -> acc)
        layouts []
    in
    if inits <> [] then Rewrite.prepend_entry rw inits
  end;
  Rewrite.finish rw

let run (m : Irmod.t) dsa =
  let last = Domain.DLS.get last in
  last.splits <- 0;
  last.soa <- 0;
  let counts = Field_counts.compute m dsa in
  let facts = gather m dsa in
  let comp, layouts = plan m dsa facts counts in
  if Hashtbl.length layouts = 0 then m
  else begin
    Hashtbl.iter
      (fun _ l ->
        match l with
        | L_split _ -> last.splits <- last.splits + 1
        | L_soa _ -> last.soa <- last.soa + 1)
      layouts;
    let globals =
      Hashtbl.fold
        (fun _ l acc ->
          match l with
          | L_split { g_dir; g_cnt; _ } ->
            { Irmod.gname = g_dir; gty = Types.Ptr Types.I64; ginit = Instr.Null }
            :: { Irmod.gname = g_cnt; gty = Types.I64; ginit = Instr.Imm 0L }
            :: acc
          | L_soa { g_stride; _ } ->
            { Irmod.gname = g_stride; gty = Types.I64; ginit = Instr.Imm 0L } :: acc)
        layouts []
    in
    let funcs = List.map (rewrite_func m dsa comp layouts) m.funcs in
    let m' = { Irmod.globals = m.globals @ globals; funcs } in
    Cards_ir.Verify.check_exn m';
    m'
  end
