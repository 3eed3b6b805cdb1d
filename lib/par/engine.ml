module S = Cards_serve.Serve
module T = Cards_serve.Tenant

(* The parallel serving engine: tenants build and execute on OCaml 5
   domains under their own local virtual clocks, while the calling
   domain (the coordinator) replays the exact sequential DRR schedule
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

   The engine is work-conserving: the whole mix is one set of jobs —
   a program job per distinct source (compile and footprint probe), a
   build job per tenant, and each tenant's requests — and no domain
   owns any of them.  Every domain runs the same step: take the first
   unclaimed program job, else the first tenant whose program exists
   and whose build nobody has claimed, else an idle built tenant's
   next request.  Every job is claimed through an [Atomic] flag, so it
   runs once, and a tenant executes on one domain at a time with its
   records entering its channel in execution order.  The coordinator
   steps until every tenant is built, admits the mix, and then
   commits; when the record it needs is not queued yet it executes
   that tenant itself, or else any other idle one, and blocks in
   [Chan.pop] only when every live tenant is running on another
   domain. *)

type serving = {
  specs : T.spec array;
  sources : string array;           (* distinct sources, first-seen order *)
  program_of : int array;           (* tenant -> index into [sources] *)
  first : int array;                (* source -> its first tenant *)
  programs : T.program option Atomic.t array;  (* set once compiled *)
  unclaimed : bool Atomic.t array;  (* program job k not yet claimed *)
  tenants : T.t option array;       (* written before [built] counts it *)
  unbuilt : bool Atomic.t array;    (* tenant i's build not yet claimed *)
  built : int Atomic.t;
  jobs : int Atomic.t;              (* program and build jobs unclaimed *)
  chans : T.exec Chan.t array;
  free : bool Atomic.t array;
      (* tenant i is built, has requests left and no domain holds it *)
  idle : int Atomic.t;
      (* never undercounts the set [unclaimed], [unbuilt] and [free]
         flags: a release counts before it sets a flag, a claim clears
         the flag before it uncounts *)
  failure : exn option Atomic.t;
  program : string -> T.program;
  build : T.program -> T.spec -> T.t;
  perturb : int -> unit;
}

let claim s flag =
  Atomic.get flag
  && Atomic.compare_and_set flag true false
  && (Atomic.decr s.idle; true)

let all_built s = Atomic.get s.built = Array.length s.specs
let tenant s i = Option.get s.tenants.(i)

(* Hand tenant [i] back while it has requests left; true if it did. *)
let release s i =
  T.exec_remaining (tenant s i) > 0
  && (Atomic.incr s.idle;
      Atomic.set s.free.(i) true;
      true)

(* The first failure wins: it poisons every channel, so a blocked pop
   wakes, and every domain checks it before it starts a job. *)
let fail s e =
  if Atomic.compare_and_set s.failure None (Some e) then
    Array.iter (fun c -> Chan.poison c e) s.chans

(* Every job starts here, on whichever domain claimed it. *)
let start s i =
  Option.iter (fun e -> raise (Chan.Poisoned e)) (Atomic.get s.failure);
  s.perturb i

(* Program job [k] runs under its first tenant's index: that tenant
   cannot be building or running before the program exists. *)
let program_job s =
  let rec scan k =
    if k = Array.length s.sources then -1
    else if claim s s.unclaimed.(k) then begin
      Atomic.decr s.jobs;
      start s s.first.(k);
      Atomic.set s.programs.(k) (Some (s.program s.sources.(k)));
      s.first.(k)
    end
    else scan (k + 1)
  in
  scan 0

let build_job s =
  let rec scan i =
    if i = Array.length s.specs then -1
    else
      match Atomic.get s.programs.(s.program_of.(i)) with
      | Some prog when claim s s.unbuilt.(i) ->
        Atomic.decr s.jobs;
        start s i;
        s.tenants.(i) <- Some (s.build prog s.specs.(i));
        Atomic.incr s.built;
        ignore (release s i);
        i
      | _ -> scan (i + 1)
  in
  scan 0

(* Claim the first idle tenant at or after [from], run one request
   into its channel, release it. *)
let request s from =
  let n = Array.length s.specs in
  let rec scan k =
    if k = n then -1
    else
      let i = (from + k) mod n in
      if claim s s.free.(i) then begin
        start s i;
        Chan.push s.chans.(i) (T.exec_next (tenant s i));
        ignore (release s i);
        i
      end
      else scan (k + 1)
  in
  scan 0

(* The step every domain runs: one job, programs first, then builds,
   then requests.  Returns the tenant it worked for (a program job's
   first tenant), or -1 when nothing was ready. *)
let step s from =
  if Atomic.get s.jobs = 0 then request s from
  else
    match program_job s with
    | -1 -> (match build_job s with -1 -> request s from | i -> i)
    | i -> i

(* A worker steps until [idle] reads 0: every job is then claimed and
   every live tenant held by another domain, and since tenants only
   ever finish, the domains left can run every tenant still live. *)
let serve_worker s w =
  let rec loop from =
    if Atomic.get s.idle > 0 && Option.is_none (Atomic.get s.failure) then
      match step s from with
      | -1 -> Domain.cpu_relax (); loop from
      | i -> loop (i + 1)
  in
  try loop w with e -> fail s e

(* The coordinator steps until every tenant is built. *)
let rec build_all s from =
  Option.iter (fun e -> raise (Chan.Poisoned e)) (Atomic.get s.failure);
  if not (all_built s) then begin
    match step s from with
    | -1 -> Domain.cpu_relax (); build_all s from
    | i -> build_all s (i + 1)
  end

(* The coordinator's side of serving: while [i]'s next record is not
   queued, it steps from [i] — [i] itself when idle, else any idle
   tenant.  With none idle, another domain holds [i] or ran its last
   request, and its holder pushes before it lets go, so the blocking
   pop returns. *)
let rec record s i =
  match Chan.try_pop s.chans.(i) with
  | Some e -> e
  | None -> if step s i >= 0 then record s i else Chan.pop s.chans.(i)

let coordinate s (cfg : S.config) =
  build_all s 0;
  let tenants = Array.map Option.get s.tenants in
  let pin_admitted = S.admit cfg tenants in
  let serve i ~now = T.commit tenants.(i) ~now (record s i) in
  (S.drive cfg ~tenants ~pin_admitted ~serve, Array.map T.fabric_events tenants)

let run_internal ?(perturb = ignore) ~trace_fabric ~domains (cfg : S.config)
    (specs : T.spec array) =
  if domains < 1 then invalid_arg "Engine.run: domains must be >= 1";
  let n = Array.length specs in
  if n = 0 then invalid_arg "Engine.run: no tenants";
  let sources, program_of = S.sources specs in
  let np = Array.length sources in
  let first = Array.make np n in
  Array.iteri (fun i k -> first.(k) <- min first.(k) i) program_of;
  let flags k v = Array.init k (fun _ -> Atomic.make v) in
  let base = cfg.S.base and engine = cfg.S.engine in
  let pin_share = S.pin_share cfg ~tenants:n in
  let s =
    { specs; sources; program_of; first;
      programs = Array.init np (fun _ -> Atomic.make None);
      unclaimed = flags np true;
      tenants = Array.make n None;
      unbuilt = flags n true;
      built = Atomic.make 0;
      jobs = Atomic.make (np + n);
      chans = Array.init n (fun _ -> Chan.create ());
      free = flags n false;
      idle = Atomic.make (np + n);
      failure = Atomic.make None;
      program = T.program ~base ~engine;
      build = T.build_from ~trace_fabric ~base ~engine ~pin_share;
      perturb }
  in
  let result = ref None in
  (* n tenants keep at most n domains busy, the coordinator included.
     A failure on the coordinator is re-raised only once every worker
     has returned ([Pool.run] waits for them). *)
  Cards_util.Pool.run
    ~domains:(1 + min domains (n - 1))
    (fun w ->
      if w > 0 then serve_worker s w
      else
        match coordinate s cfg with
        | r -> result := Some r
        | exception e ->
          fail s e;
          raise (Option.get (Atomic.get s.failure)));
  Option.get !result

let run ?perturb ~domains cfg specs =
  fst (run_internal ?perturb ~trace_fabric:false ~domains cfg specs)

let run_traced ?perturb ~domains cfg specs =
  run_internal ?perturb ~trace_fabric:true ~domains cfg specs

(* Sequential reference with fabric tracing: [Serve.run] bit for bit
   (same build, same drive loop, same serve_next) plus the pure port
   observers — the differential tests' other arm. *)
let seq_traced (cfg : S.config) (specs : T.spec array) =
  let tenants, pin_admitted = S.build ~trace_fabric:true cfg specs in
  let result =
    S.drive cfg ~tenants ~pin_admitted ~serve:(fun i ~now ->
        T.serve_next tenants.(i) ~now)
  in
  (result, Array.map T.fabric_events tenants)
