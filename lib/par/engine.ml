module S = Cards_serve.Serve
module T = Cards_serve.Tenant

(* The parallel serving engine: tenants execute on OCaml 5 domains
   under their own local virtual clocks, while the calling domain (the
   coordinator) replays the exact sequential DRR schedule
   ([Serve.drive]) with "execute now" swapped for "commit the tenant's
   next completion record".

   Why the schedule is bit-identical to sequential: a tenant's
   execution results (return values, measured costs, outputs, fabric
   effects) are independent of the serving clock — the PR 9 isolation
   invariant, proved by the tenant-isolation differential oracle — so
   requests may execute arbitrarily far ahead of it.  Every scheduling
   decision in [Serve.drive] depends only on the arrival streams, the
   committed prefix, and the costs the commits return, and
   [Tenant.commit] fails a record that arrives out of execution order.
   Real interleaving can therefore change only wall-clock time, never
   the virtual-time schedule.

   The engine is work-conserving: no domain owns a tenant.  Every
   domain runs the same step — claim an idle tenant through its [free]
   flag, execute its next request, push the record into its channel,
   release the claim — so a tenant executes on one domain at a time
   and its records enter its channel in execution order.  The
   coordinator commits; when the record it needs is not queued yet it
   executes that tenant itself, or else any other idle one, and blocks
   in [Chan.pop] only when every live tenant is running on another
   domain. *)

type serving = {
  tenants : T.t array;
  chans : T.exec Chan.t array;
  free : bool Atomic.t array;
      (* tenant i has requests left and no domain holds it *)
  idle : int Atomic.t;
      (* never undercounts [free]: a release counts before it sets the
         flag, a claim clears the flag before it uncounts *)
  failure : exn option Atomic.t;
  perturb : int -> unit;
}

let claim s i =
  Atomic.get s.free.(i)
  && Atomic.compare_and_set s.free.(i) true false
  && (Atomic.decr s.idle; true)

let release s i =
  if T.exec_remaining s.tenants.(i) > 0 then begin
    Atomic.incr s.idle;
    Atomic.set s.free.(i) true
  end

(* The first failure wins: it poisons every channel, so a blocked pop
   wakes, and every domain checks it before it starts a request. *)
let fail s e =
  if Atomic.compare_and_set s.failure None (Some e) then
    Array.iter (fun c -> Chan.poison c e) s.chans

(* Execute claimed tenant [i]'s next request. *)
let exec s i =
  Option.iter (fun e -> raise (Chan.Poisoned e)) (Atomic.get s.failure);
  s.perturb i;
  T.exec_next s.tenants.(i)

(* The step every domain runs: claim the first idle tenant at or after
   [from], run one request into its channel, release it.  Returns the
   tenant, or -1 when none was idle. *)
let step s from =
  let n = Array.length s.tenants in
  let rec scan k =
    if k = n then -1
    else
      let i = (from + k) mod n in
      if claim s i then begin
        Chan.push s.chans.(i) (exec s i);
        release s i;
        i
      end
      else scan (k + 1)
  in
  scan 0

(* A worker steps until [idle] reads 0: every live tenant is then held
   by another domain, and since tenants only ever finish, the domains
   left can run every tenant still live. *)
let serve_worker s w =
  let rec loop from =
    if Atomic.get s.idle > 0 then
      match step s from with
      | -1 -> Domain.cpu_relax (); loop from
      | i -> loop (i + 1)
  in
  try loop w with e -> fail s e

(* The coordinator's side: while [i]'s next record is not queued, it
   steps from [i] — [i] itself when idle, else any idle tenant.  With
   none idle, another domain holds [i] or ran its last request, and
   its holder pushes before it lets go, so the blocking pop returns. *)
let rec record s i =
  match Chan.try_pop s.chans.(i) with
  | Some e -> e
  | None -> if step s i >= 0 then record s i else Chan.pop s.chans.(i)

let run_internal ?(perturb = ignore) ~trace_fabric ~domains (cfg : S.config)
    (specs : T.spec array) =
  if domains < 1 then invalid_arg "Engine.run: domains must be >= 1";
  (* The build fans out over [domains] domains, the calling one
     included: a tenant built on a domain keeps its state in that
     domain's heap, and every extra building domain adds to the peak
     resident set. *)
  let tenants, pin_admitted =
    S.build ~trace_fabric ~perturb ~domains cfg specs
  in
  let live = Array.map (fun t -> T.exec_remaining t > 0) tenants in
  let s =
    { tenants;
      chans = Array.map (fun _ -> Chan.create ()) tenants;
      free = Array.map Atomic.make live;
      idle =
        Atomic.make (Array.fold_left (fun k l -> k + Bool.to_int l) 0 live);
      failure = Atomic.make None;
      perturb }
  in
  (* n tenants keep at most n domains busy, the coordinator included. *)
  let workers = min domains (Array.length tenants - 1) in
  let domains =
    Array.init workers (fun w -> Domain.spawn (fun () -> serve_worker s w))
  in
  let serve i ~now = T.commit tenants.(i) ~now (record s i) in
  match S.drive cfg ~tenants ~pin_admitted ~serve with
  | result ->
    Array.iter Domain.join domains;
    (result, Array.map T.fabric_events tenants)
  | exception e ->
    fail s e;
    Array.iter Domain.join domains;
    raise (Option.get (Atomic.get s.failure))

let run ?perturb ~domains cfg specs =
  fst (run_internal ?perturb ~trace_fabric:false ~domains cfg specs)

let run_traced ?perturb ~domains cfg specs =
  run_internal ?perturb ~trace_fabric:true ~domains cfg specs

(* Sequential reference with fabric tracing: [Serve.run] bit for bit
   (same build, same drive loop, same serve_next) plus the pure port
   observers — the differential tests' other arm. *)
let seq_traced (cfg : S.config) (specs : T.spec array) =
  let tenants, pin_admitted = S.build ~trace_fabric:true ~domains:1 cfg specs in
  let result =
    S.drive cfg ~tenants ~pin_admitted ~serve:(fun i ~now ->
        T.serve_next tenants.(i) ~now)
  in
  (result, Array.map T.fabric_events tenants)
