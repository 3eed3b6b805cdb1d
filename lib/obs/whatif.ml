type scope = Global | Ds of int

type factors = {
  f_queued : float;
  f_proto : float;
  f_wire : float;
  f_retry : float;
  f_pf_wait : float;
  f_trap : float;
}

let unit_factors =
  { f_queued = 1.0; f_proto = 1.0; f_wire = 1.0;
    f_retry = 1.0; f_pf_wait = 1.0; f_trap = 1.0 }

type exec =
  | Exec_none
  | Exec_scale of { eds : string option; proto : float; wire : float }
  | Exec_qp of int
  | Exec_fault_free
  | Exec_instant_prefetch

type scenario = {
  sc_id : string;
  sc_label : string;
  sc_scope : scope;
  sc_factors : factors;
  sc_exec : exec;
}

type prediction = {
  p_scenario : scenario;
  p_baseline : int;
  p_cycles : int;
  p_saved : int;
  p_speedup : float;
  p_chain_stall : int;
}

(* Factor 1.0 short-circuits to the untouched integer, mirroring
   Fabric.scale_cycles: the identity scenario must reproduce every
   recorded phase bit-for-bit, not merely to rounding. *)
let scale_phase f c =
  if f = 1.0 || c = 0 then c
  else max 0 (int_of_float ((float_of_int c *. f) +. 0.5))

let identity =
  { sc_id = "identity";
    sc_label = "baseline re-run (all factors x1.0)";
    sc_scope = Global;
    sc_factors = unit_factors;
    sc_exec = Exec_scale { eds = None; proto = 1.0; wire = 1.0 } }

let scenario_of_factors ~id ~label ?(scope = Global) ?(exec = Exec_none)
    factors =
  { sc_id = id; sc_label = label; sc_scope = scope;
    sc_factors = factors; sc_exec = exec }

(* The replay walks spans in id order — the same forward pass
   Critical_path uses, valid because sp_parent < sp_id always.  It is
   anchored to the *recorded* schedule: rather than re-simulating the
   fabric from scratch (which would have to reconstruct state the
   spans never captured, like NACK turnarounds holding a QP), it
   computes signed deltas against what actually happened:

   - [cpu_shift]: how many cycles earlier the CPU timeline now sits.
     Every CPU-stall span (Demand/Escalated/Retry/Pf_settle/Trap)
     adds (old stall - new stall).
   - [qp_save.(qp)]: how much earlier that queue pair frees up under
     the new cost regime, so a span that was queued re-derives its
     wait as max(arrival', recorded-start - save) - arrival'.
   - [new_complete]: re-priced completion times of prefetch/batch
     spans, so Pf_settle spans re-derive their wait from when the
     prefetch *now* lands vs when the access *now* happens.

   Under unit factors every delta is zero by construction, which is
   what makes the identity scenario exact. *)
let predict ~total col sc =
  let spans =
    List.sort (fun (a : Span.t) b -> compare a.sp_id b.sp_id) (Span.spans col)
  in
  let fs (s : Span.t) =
    match sc.sc_scope with
    | Global -> sc.sc_factors
    | Ds h -> if s.sp_ds = h then sc.sc_factors else unit_factors
  in
  let n = max 16 (Span.length col) in
  let cpu_shift = ref 0 in
  let qp_save : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let new_complete : (int, int) Hashtbl.t = Hashtbl.create n in
  (* batch id -> (new start-of-wire base, wire factor): members place
     their completions at base + scaled cumulative serialization. *)
  let batch_base : (int, int * float) Hashtbl.t = Hashtbl.create 16 in
  let by_id : (int, Span.t) Hashtbl.t = Hashtbl.create n in
  let chain : (int, int) Hashtbl.t = Hashtbl.create n in
  let best_chain = ref 0 in
  let note_chain (s : Span.t) ns =
    let pc =
      match Hashtbl.find_opt chain s.sp_parent with Some c -> c | None -> 0
    in
    let c = ns + pc in
    Hashtbl.replace chain s.sp_id c;
    if c > !best_chain then best_chain := c
  in
  (* Re-price a span that occupied a queue pair.  The attempt's
     arrival is recovered as sp_start - sp_queued (for a demand span
     that retried, sp_issued is the occasion start, not the final
     attempt's arrival).  Returns the new (queued, proto, wire) split
     and the new completion time. *)
  let occupancy (s : Span.t) (f : factors) =
    let proto' = scale_phase f.f_proto s.sp_proto in
    let wire' = scale_phase f.f_wire s.sp_wire in
    let arrival = s.sp_start - s.sp_queued in
    let new_arrival = arrival - !cpu_shift in
    let save =
      match Hashtbl.find_opt qp_save s.sp_qp with Some v -> v | None -> 0
    in
    let new_start =
      if s.sp_queued > 0 then max new_arrival (s.sp_start - save)
      else new_arrival
    in
    let queued' = scale_phase f.f_queued (new_start - new_arrival) in
    let eff = new_arrival + queued' in
    let old_busy_end = s.sp_start + s.sp_proto + s.sp_wire in
    let new_busy_end = eff + proto' + wire' in
    if s.sp_qp >= 0 then
      Hashtbl.replace qp_save s.sp_qp (old_busy_end - new_busy_end);
    (queued', proto', wire', new_busy_end)
  in
  List.iter
    (fun (s : Span.t) ->
      Hashtbl.replace by_id s.sp_id s;
      let f = fs s in
      match s.sp_kind with
      | Span.Demand | Span.Escalated ->
        let q', p', w', nc = occupancy s f in
        let new_stall =
          q' + p' + w'
          + scale_phase f.f_retry s.sp_retry
          + scale_phase f.f_pf_wait s.sp_pf_wait
          + scale_phase f.f_trap s.sp_trap
        in
        cpu_shift := !cpu_shift + (Span.stall s - new_stall);
        Hashtbl.replace new_complete s.sp_id nc;
        note_chain s new_stall
      | Span.Batch ->
        let q', p', w', nc = occupancy s f in
        Hashtbl.replace new_complete s.sp_id nc;
        Hashtbl.replace batch_base s.sp_id (nc - w', f.f_wire);
        note_chain s (q' + p' + w')
      | Span.Prefetch -> (
        match s.sp_edge with
        | Some Span.E_member ->
          (* Zero-phase member: its completion is the batch's wire
             base plus its own cumulative serialization share,
             recovered from the recorded offsets. *)
          let nc =
            match
              ( Hashtbl.find_opt batch_base s.sp_parent,
                Hashtbl.find_opt by_id s.sp_parent )
            with
            | Some (base, fw), Some b ->
              let cum = max 0 (s.sp_complete - (b.sp_start + b.sp_proto)) in
              base + scale_phase fw cum
            | _ -> s.sp_complete - !cpu_shift
          in
          Hashtbl.replace new_complete s.sp_id nc;
          note_chain s 0
        | _ ->
          let q', p', w', nc = occupancy s f in
          Hashtbl.replace new_complete s.sp_id nc;
          note_chain s (q' + p' + w'))
      | Span.Pf_settle ->
        let access = s.sp_issued - !cpu_shift in
        let raw =
          match Hashtbl.find_opt new_complete s.sp_parent with
          | Some pnc when s.sp_edge = Some Span.E_satisfy ->
            max 0 (pnc - access)
          | _ -> s.sp_pf_wait
        in
        let new_wait = scale_phase f.f_pf_wait raw in
        cpu_shift := !cpu_shift + (s.sp_pf_wait - new_wait);
        note_chain s new_wait
      | Span.Retry ->
        (* The NACK turnaround + backoff is CPU-visible; the QP it
           held carries no id in the span, so its occupancy is not
           re-derived (documented approximation). *)
        let new_stall =
          scale_phase f.f_retry s.sp_retry
          + scale_phase f.f_queued s.sp_queued
          + scale_phase f.f_proto s.sp_proto
          + scale_phase f.f_wire s.sp_wire
        in
        cpu_shift := !cpu_shift + (Span.stall s - new_stall);
        note_chain s new_stall
      | Span.Trap ->
        let new_stall = scale_phase f.f_trap s.sp_trap in
        cpu_shift := !cpu_shift + (s.sp_trap - new_stall);
        note_chain s new_stall
      | Span.Pf_hit -> note_chain s 0
      | Span.Call | Span.Degrade _ | Span.Policy_switch _ | Span.Epoch
      | Span.Loop_version _ ->
        ())
    spans;
  let predicted = max 0 (total - !cpu_shift) in
  { p_scenario = sc;
    p_baseline = total;
    p_cycles = predicted;
    p_saved = total - predicted;
    p_speedup =
      (if predicted > 0 then float_of_int total /. float_of_int predicted
       else Float.infinity);
    p_chain_stall = !best_chain }

let catalog ?(per_ds = 2) ~names col =
  let base =
    [ identity;
      scenario_of_factors ~id:"proto-x0.5"
        ~label:"near-cache RPC path: protocol cost halved"
        ~exec:(Exec_scale { eds = None; proto = 0.5; wire = 1.0 })
        { unit_factors with f_proto = 0.5 };
      scenario_of_factors ~id:"wire-x0"
        ~label:"infinite bandwidth: serialization free"
        ~exec:(Exec_scale { eds = None; proto = 1.0; wire = 0.0 })
        { unit_factors with f_wire = 0.0 };
      scenario_of_factors ~id:"queue-x0"
        ~label:"infinite QPs: queue waits vanish"
        ~exec:(Exec_qp 64)
        { unit_factors with f_queued = 0.0 };
      scenario_of_factors ~id:"pf-wait-x0"
        ~label:"perfect prefetch: in-flight waits vanish"
        ~exec:Exec_instant_prefetch
        { unit_factors with f_pf_wait = 0.0 };
      scenario_of_factors ~id:"retry-x0"
        ~label:"fault-free fabric: retry/backoff vanish"
        ~exec:Exec_fault_free
        { unit_factors with f_retry = 0.0 } ]
  in
  (* Per-structure variants for the structures carrying the most
     recorded CPU stall: scoped by handle for prediction and by the
     static structure name for execution, which agree because batch
     spans carry the origin structure's handle and the runtime scales
     batches by the origin structure too. *)
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Span.iter
    (fun (s : Span.t) ->
      match s.sp_kind with
      | Span.Demand | Span.Escalated | Span.Retry | Span.Pf_settle
      | Span.Trap ->
        if s.sp_ds > 0 then
          Hashtbl.replace tbl s.sp_ds
            ((match Hashtbl.find_opt tbl s.sp_ds with
              | Some v -> v
              | None -> 0)
            + Span.stall s)
      | _ -> ())
    col;
  let top =
    Hashtbl.fold (fun ds v acc -> (ds, v) :: acc) tbl []
    |> List.filter (fun (_, v) -> v > 0)
    |> List.sort (fun (da, a) (db, b) ->
           if a <> b then compare b a else compare da db)
    |> List.filteri (fun i _ -> i < per_ds)
  in
  base
  @ List.map
      (fun (ds, _) ->
        let name = names ds in
        scenario_of_factors
          ~id:("proto-x0.5@" ^ name)
          ~label:(Printf.sprintf "protocol cost halved for %s only" name)
          ~scope:(Ds ds)
          ~exec:(Exec_scale { eds = Some name; proto = 0.5; wire = 1.0 })
          { unit_factors with f_proto = 0.5 })
      top

let rank ~total col scenarios =
  List.map (predict ~total col) scenarios
  |> List.sort (fun a b ->
         if a.p_saved <> b.p_saved then compare b.p_saved a.p_saved
         else compare a.p_scenario.sc_id b.p_scenario.sc_id)
