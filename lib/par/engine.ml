module S = Cards_serve.Serve
module T = Cards_serve.Tenant
module A = Cards_serve.Admission
module Rng = Cards_util.Rng

(* The parallel serving engine: tenants execute on a pool of OCaml 5
   domains under their own local virtual clocks, while the calling
   domain replays the exact sequential DRR schedule ([Serve.drive])
   with "execute now" swapped for "commit the tenant's next completion
   record".

   Why the schedule is bit-identical to sequential: a tenant's
   execution results (return values, measured costs, outputs, fabric
   effects) are independent of the serving clock — the PR 9 isolation
   invariant, proved by the tenant-isolation differential oracle — so
   workers may run arbitrarily far ahead.  Every scheduling decision
   in [Serve.drive] depends only on the arrival streams, the committed
   prefix, and the costs the commits return; the blocking pop on a
   tenant's channel IS the conservative lookahead barrier — the
   coordinator cannot advance onto a dispatch whose record does not
   exist yet — and [Tenant.commit] fails a record that arrives out of
   execution order.  Real interleaving can therefore change only
   wall-clock time, never the virtual-time schedule. *)

let assignment ~n ~domains =
  let d = max 1 (min domains n) in
  Array.init n (fun i -> i mod d)

(* An artificial, seeded spin before every build/exec step, so the
   stress suite can randomize the real interleaving and assert the
   virtual-time results don't move. *)
let perturb_delay rng perturb =
  if perturb > 0 then
    for _ = 1 to Rng.int rng perturb do
      Domain.cpu_relax ()
    done

let run_internal ~perturb ~trace_fabric ~domains (cfg : S.config)
    (specs : T.spec array) =
  let n = Array.length specs in
  if n = 0 then invalid_arg "Engine.run: no tenants";
  if domains < 1 then invalid_arg "Engine.run: domains must be >= 1";
  let assign = assignment ~n ~domains in
  let d = 1 + Array.fold_left max 0 assign in
  (* Admission: each tenant's pin share is budget/n, exactly as in the
     sequential path — there [pin_share = min share available], but
     the k-budget planner never grants more than its budget, so by
     induction [available >= budget - i*share >= share] before every
     grant and the min always resolves to [share].  Shares therefore
     need no cross-tenant sequencing, which is what lets tenants build
     in parallel; the admission sum is still checked below. *)
  let share = cfg.S.pin_budget / n in
  (* The MiniC compiler keeps process-global pass counters, so every
     tenant is compiled here, sequentially, before any domain spawns;
     the pool gets pre-compiled preps and does only tenant-private
     work. *)
  let preps =
    Array.map
      (fun spec ->
        T.prepare ~trace_fabric ~base:cfg.S.base ~engine:cfg.S.engine
          ~pin_share:share spec)
      specs
  in
  let rngs =
    Array.init n (fun i ->
        Rng.create ((perturb * 0x1000193) lxor (i * 0x9e3779b9) lxor 0x5bd1))
  in
  let tenants =
    Pool.map ~domains:d
      (fun i ->
        perturb_delay rngs.(i) perturb;
        T.build preps.(i))
      (Array.init n Fun.id)
  in
  let adm = A.create ~budget_bytes:cfg.S.pin_budget in
  Array.iter
    (fun t ->
      if not (A.admit adm ~bytes:(T.pinned_granted t)) then
        failwith "Engine.run: planner exceeded its admission share")
    tenants;
  let chans = Array.init n (fun _ -> Chan.create ()) in
  let poison_all e = Array.iter (fun c -> Chan.poison c e) chans in
  (* A worker runs its tenants ahead of the serving clock, one request
     per tenant per round.  Pushes never block, so the coordinator's
     pop is the only wait in the engine. *)
  let worker w () =
    let step i =
      T.exec_remaining tenants.(i) > 0
      && begin
        perturb_delay rngs.(i) perturb;
        Chan.push chans.(i) (T.exec_next tenants.(i));
        true
      end
    in
    let rec loop live = if live <> [] then loop (List.filter step live) in
    try loop (List.filter (fun i -> assign.(i) = w) (List.init n Fun.id)) with
    | Chan.Poisoned _ -> ()
    | e -> poison_all e
  in
  let workers = Array.init d (fun w -> Domain.spawn (worker w)) in
  let finish () = Array.iter Domain.join workers in
  let serve i ~now = T.commit tenants.(i) ~now (Chan.pop chans.(i)) in
  match S.drive cfg ~tenants ~pin_admitted:(A.admitted_bytes adm) ~serve with
  | result ->
    finish ();
    (result, Array.map T.fabric_events tenants)
  | exception Chan.Poisoned e ->
    finish ();
    raise e
  | exception e ->
    poison_all e;
    finish ();
    raise e

let run ?(perturb = 0) ~domains cfg specs =
  fst (run_internal ~perturb ~trace_fabric:false ~domains cfg specs)

let run_traced ?(perturb = 0) ~domains cfg specs =
  run_internal ~perturb ~trace_fabric:true ~domains cfg specs

(* Sequential reference with fabric tracing: identical to [Serve.run]
   (same admission arithmetic, same drive loop, same serve_next) plus
   the pure port observers — the differential tests' other arm. *)
let seq_traced (cfg : S.config) (specs : T.spec array) =
  let n = Array.length specs in
  if n = 0 then invalid_arg "Engine.seq_traced: no tenants";
  let adm = A.create ~budget_bytes:cfg.S.pin_budget in
  let share = cfg.S.pin_budget / n in
  let tenants =
    Array.map
      (fun spec ->
        let t =
          T.create ~trace_fabric:true ~base:cfg.S.base ~engine:cfg.S.engine
            ~pin_share:(min share (A.available adm))
            spec
        in
        if not (A.admit adm ~bytes:(T.pinned_granted t)) then
          failwith "Engine.seq_traced: planner exceeded its admission share";
        t)
      specs
  in
  let result =
    S.drive cfg ~tenants ~pin_admitted:(A.admitted_bytes adm)
      ~serve:(fun i ~now -> T.serve_next tenants.(i) ~now)
  in
  (result, Array.map T.fabric_events tenants)
