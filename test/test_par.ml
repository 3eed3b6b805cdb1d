(* The parallel virtual-time engine's test battery.

   1. The parallel-vs-sequential differential oracle: the engine's
      result — every per-tenant field, the serving-clock decomposition,
      the DRR counters, the interference matrix, the aggregated fabric
      stats — must be bit-identical to [Serve.run] for every domain
      count and artificial perturbation.  The full perturbation matrix
      is registered Slow (check.sh forces it on); one adversarial cell
      stays in the quick tier.  The domain counts under test come from
      CARDS_TEST_DOMAINS when set (check.sh runs the whole suite under
      1 and 4).

   2. Wire-level determinism: with fabric-port tracing on, each
      tenant's wire-event stream (issue/start/complete/qp/bytes per
      transfer, in local virtual time) is bit-identical between the
      parallel and sequential runs.

   3. The engine's pieces across real domains: each tenant's mailbox
      (a [Chan]) delivers in FIFO order between two domains through
      both pops, and poison wakes a blocked pop; [Pool.map] keeps input
      order at any domain count and re-raises the lowest failing
      index's exception only after every started helper has returned;
      the pool reuses its parked domains across calls and completes a
      map issued from inside a pool job; a failing program job, build
      or request, on the coordinator or on a worker, fails the whole
      run, re-raised only after every worker has returned.

   4. Shared programs: tenants of one run with the same source share
      one compiled program, and each still matches its solo run.

   5. A compile runs on any domain: every bundled source compiled on 4
      domains at once reports exactly what its sequential compile
      does. *)

module R = Cards_runtime
module F = Cards_net.Fabric
module S = Cards_serve.Serve
module Tn = Cards_serve.Tenant
module Lg = Cards_serve.Loadgen
module E = Cards_par.Engine
module Ch = Cards_par.Chan
module Pool = Cards_util.Pool
module Rng = Cards_util.Rng

let check = Alcotest.check

(* Domain counts under differential test: CARDS_TEST_DOMAINS pins one
   count (check.sh runs the release suite under 1 and 4); otherwise a
   small ladder. *)
let domain_counts =
  match Sys.getenv_opt "CARDS_TEST_DOMAINS" with
  | Some s -> [ int_of_string (String.trim s) ]
  | None -> [ 1; 2; 4 ]

let small_kv ~name ~seed ~fault_rate =
  { Tn.name;
    source = Cards_workloads.Kv.source ~keys:256 ~nbuckets:64;
    seed; requests = 16; mean_gap = 20_000.0;
    sample = Lg.kv_sample ~keys:256 ~nbuckets:64; fault_rate }

let small_an ~name ~seed ~fault_rate =
  { Tn.name;
    source = Cards_workloads.Analytics.source_server ~trips:120;
    seed; requests = 8; mean_gap = 200_000.0;
    sample = Lg.analytics_sample; fault_rate }

let small_mix ?(rate = 0.0) () =
  [| small_kv ~name:"kv0" ~seed:11 ~fault_rate:0.0;
     small_an ~name:"an1" ~seed:23 ~fault_rate:rate;
     small_kv ~name:"kv2" ~seed:37 ~fault_rate:0.0 |]

(* The stress perturbation: a seeded spin of up to [perturb] relax
   steps before every program job, build and request, drawn from the
   index's own RNG (the engine never overlaps two calls with one
   index). *)
let spin ~seed perturb =
  let rngs =
    Array.init 8 (fun i ->
        Rng.create ((seed * 0x1000193) lxor (i * 0x9e3779b9) lxor 0x5bd1))
  in
  fun i ->
    for _ = 1 to Rng.int rngs.(i) perturb do
      Domain.cpu_relax ()
    done

(* Full bit-identicality between two serving results. *)
let compare_results label (a : S.result) (b : S.result) =
  let ck what got want = check Alcotest.int (label ^ ": " ^ what) want got in
  ck "total cycles" a.S.total_cycles b.S.total_cycles;
  ck "busy cycles" a.S.busy_cycles b.S.busy_cycles;
  ck "idle cycles" a.S.idle_cycles b.S.idle_cycles;
  ck "granted" a.S.granted b.S.granted;
  ck "charged" a.S.charged b.S.charged;
  ck "forfeited" a.S.forfeited b.S.forfeited;
  ck "rounds" a.S.rounds b.S.rounds;
  ck "pin admitted" a.S.pin_admitted b.S.pin_admitted;
  check Alcotest.bool (label ^ ": interference matrix") true
    (a.S.stolen = b.S.stolen);
  check Alcotest.bool (label ^ ": aggregated fabric stats") true
    (a.S.fabric = b.S.fabric);
  ck "tenant count" (Array.length a.S.tenants) (Array.length b.S.tenants);
  Array.iteri
    (fun i (bt : S.tenant_result) ->
      let at = a.S.tenants.(i) in
      let who what = Printf.sprintf "%s: %s %s" label bt.S.tr_name what in
      check Alcotest.string (who "name") bt.S.tr_name at.S.tr_name;
      check Alcotest.int (who "served") bt.S.tr_served at.S.tr_served;
      check Alcotest.int (who "setup cycles") bt.S.tr_setup_cycles
        at.S.tr_setup_cycles;
      check Alcotest.int (who "service cycles") bt.S.tr_service_cycles
        at.S.tr_service_cycles;
      check Alcotest.int (who "stall cycles") bt.S.tr_stall_cycles
        at.S.tr_stall_cycles;
      check Alcotest.int (who "wait cycles") bt.S.tr_wait_cycles
        at.S.tr_wait_cycles;
      check Alcotest.int (who "pinned grant") bt.S.tr_pinned_granted
        at.S.tr_pinned_granted;
      check Alcotest.int (who "degrade level") bt.S.tr_degrade_level
        at.S.tr_degrade_level;
      check Alcotest.int (who "end deficit") bt.S.tr_deficit_end
        at.S.tr_deficit_end;
      check Alcotest.(list string) (who "output") bt.S.tr_output
        at.S.tr_output;
      check Alcotest.bool (who "service records") true
        (at.S.tr_records = bt.S.tr_records);
      check Alcotest.bool (who "fabric stats") true
        (at.S.tr_fabric = bt.S.tr_fabric);
      check Alcotest.bool (who "latency histogram") true
        (at.S.tr_latency = bt.S.tr_latency))
    b.S.tenants

(* ---------- 1. parallel = sequential, the differential oracle ---------- *)

let test_engine_matches_sequential () =
  let specs = small_mix () in
  let seq = S.run S.default_config specs in
  List.iter
    (fun d ->
      let par = E.run ~domains:d S.default_config specs in
      compare_results (Printf.sprintf "domains=%d" d) par seq)
    domain_counts

let test_engine_matches_sequential_faulty () =
  let specs = small_mix ~rate:0.2 () in
  let seq = S.run S.default_config specs in
  List.iter
    (fun d ->
      let par = E.run ~domains:d S.default_config specs in
      compare_results (Printf.sprintf "faulty domains=%d" d) par seq)
    domain_counts

let test_engine_degenerate_shapes () =
  let specs = small_mix () in
  let seq = S.run S.default_config specs in
  (* More domains than tenants: the pool caps at the tenant count. *)
  let par = E.run ~domains:16 S.default_config specs in
  compare_results "domains=16 (capped)" par seq;
  (* One tenant: the coordinator executes it alone. *)
  let solo = [| small_kv ~name:"solo" ~seed:5 ~fault_rate:0.0 |] in
  compare_results "single tenant"
    (E.run ~domains:4 S.default_config solo)
    (S.run S.default_config solo)

(* Perturbation stress: seeded artificial delays before every program
   job, build and request randomize the real interleaving;
   virtual-time results must not move. *)
let perturb_cell ~domains ~perturb seq specs =
  let par =
    E.run ~domains ~perturb:(spin ~seed:perturb perturb) S.default_config
      specs
  in
  compare_results
    (Printf.sprintf "perturb=%d domains=%d" perturb domains)
    par seq

let test_perturbation_quick () =
  let specs = small_mix ~rate:0.2 () in
  let seq = S.run S.default_config specs in
  perturb_cell ~domains:(List.fold_left max 1 domain_counts) ~perturb:200 seq
    specs

let test_perturbation_matrix () =
  let specs = small_mix ~rate:0.05 () in
  let seq = S.run S.default_config specs in
  List.iter
    (fun domains ->
      List.iter
        (fun perturb -> perturb_cell ~domains ~perturb seq specs)
        [ 20; 200; 2000 ])
    domain_counts

(* ---------- 2. wire-event streams ---------- *)

let test_traced_streams () =
  let specs = small_mix ~rate:0.2 () in
  let seq, seq_events = E.seq_traced S.default_config specs in
  let d = List.fold_left max 1 domain_counts in
  let par, par_events = E.run_traced ~domains:d S.default_config specs in
  compare_results "traced" par seq;
  Array.iteri
    (fun i ev ->
      check Alcotest.int
        (Printf.sprintf "tenant %d wire-event count" i)
        (List.length ev)
        (List.length par_events.(i));
      check Alcotest.bool
        (Printf.sprintf "tenant %d wire-event stream identical" i)
        true
        (par_events.(i) = ev))
    seq_events

(* ---------- 3. channel, pool, poison ---------- *)

let test_mailbox_poison () =
  let ch = Ch.create () in
  let entered = Atomic.make false in
  let consumer =
    Domain.spawn (fun () ->
        Atomic.set entered true;
        match Ch.pop ch with
        | _ -> Error "pop returned on an empty channel"
        | exception Ch.Poisoned (Failure m) -> Ok m
        | exception _ -> Error "wrong poison exception")
  in
  (* Let the consumer reach its blocking pop before poisoning; a pop
     that arrives after the poison must raise all the same. *)
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  for _ = 1 to 100_000 do
    Domain.cpu_relax ()
  done;
  Ch.poison ch (Failure "worker died");
  Ch.poison ch (Failure "second poison");
  (match Domain.join consumer with
   | Ok m ->
     check Alcotest.string "poison wakes the pop, first exception wins"
       "worker died" m
   | Error m -> Alcotest.fail m);
  match Ch.push ch 1 with
  | () -> Alcotest.fail "push after poison returned"
  | exception Ch.Poisoned _ -> ()

let test_mailbox_cross_domain () =
  let ch = Ch.create () in
  let total = 500 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to total - 1 do
          Ch.push ch i
        done)
  in
  let ok = ref true in
  for i = 0 to total - 1 do
    if Ch.pop ch <> i then ok := false
  done;
  Domain.join producer;
  check Alcotest.bool "channel delivered in order" true !ok

let test_mailbox_try_pop () =
  let ch = Ch.create () in
  check Alcotest.(option int) "empty channel" None (Ch.try_pop ch);
  let total = 500 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to total - 1 do
          Ch.push ch i
        done)
  in
  (* Poll from this domain while the other pushes: every value arrives
     once, in push order. *)
  let ok = ref true and next = ref 0 in
  while !next < total do
    match Ch.try_pop ch with
    | Some v ->
      if v <> !next then ok := false;
      incr next
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check Alcotest.bool "try_pop delivered in order" true !ok;
  check Alcotest.(option int) "drained" None (Ch.try_pop ch);
  Ch.push ch 7;
  Ch.poison ch (Failure "worker died");
  match Ch.try_pop ch with
  | _ -> Alcotest.fail "try_pop after poison returned"
  | exception Ch.Poisoned (Failure m) ->
    check Alcotest.string "try_pop raises the poison, queued value or not"
      "worker died" m

let test_pool_map () =
  let xs = Array.init 9 Fun.id in
  let failure ~domains f =
    match Pool.map ~domains f xs with
    | _ -> Alcotest.fail "map returned past a failure"
    | exception Failure m -> m
  in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "domains=%d: " domains in
      check
        Alcotest.(array int)
        (tag ^ "results in input order")
        (Array.map (fun i -> i * i) xs)
        (Pool.map ~domains (fun i -> i * i) xs);
      check
        Alcotest.(array int)
        (tag ^ "empty input") [||]
        (Pool.map ~domains (fun i -> i) [||]);
      (* Indices 2 and 5 fail, and once a second domain can reach it, 5
         fails first: the lowest failing index still wins. *)
      let five_failed = Atomic.make false in
      check Alcotest.string
        (tag ^ "lowest failing index re-raised")
        "2"
        (failure ~domains (fun i ->
             if i = 5 then begin
               Atomic.set five_failed true;
               failwith "5"
             end;
             if i = 2 then begin
               while domains > 1 && not (Atomic.get five_failed) do
                 Domain.cpu_relax ()
               done;
               failwith "2"
             end;
             i));
      (* The calling domain fails at once while every helper is still
         busy: [map] must wait for them all before it raises. *)
      let caller = Domain.self () in
      let failed = Atomic.make false in
      let running = Atomic.make 0 in
      check Alcotest.string
        (tag ^ "caller's failure re-raised")
        "caller"
        (failure ~domains (fun i ->
             if Domain.self () = caller then begin
               Atomic.set failed true;
               failwith "caller"
             end;
             Atomic.incr running;
             while not (Atomic.get failed) do
               Domain.cpu_relax ()
             done;
             for _ = 1 to 50_000 do
               Domain.cpu_relax ()
             done;
             Atomic.decr running;
             i));
      check Alcotest.int (tag ^ "every helper returned first") 0
        (Atomic.get running))
    [ 1; 2; 4; Array.length xs + 3 ]

let kv_mix () =
  Array.init 3 (fun i ->
      small_kv ~name:(Printf.sprintf "kv%d" i) ~seed:(11 + i) ~fault_rate:0.0)

(* The pool parks its domains between calls: repeated maps and engine
   runs reuse them instead of spawning more, and a map issued from
   inside a pool job completes even while every pool domain is busy. *)
let test_pool_reuse () =
  let before = Pool.spawned () in
  let xs = Array.init 8 Fun.id in
  for _ = 1 to 50 do
    check Alcotest.(array int) "map result" (Array.map succ xs)
      (Pool.map ~domains:3 succ xs)
  done;
  let specs = kv_mix () in
  let seq = S.run S.default_config specs in
  for k = 1 to 20 do
    compare_results
      (Printf.sprintf "engine run %d" k)
      (E.run ~domains:2 S.default_config specs)
      seq
  done;
  (* Earlier tests may have grown the pool already; these calls need
     at most two pool domains. *)
  check Alcotest.bool
    (Printf.sprintf "at most 2 pool domains (spawned %d, %d before)"
       (Pool.spawned ()) before)
    true
    (Pool.spawned () <= max before 2);
  let nested =
    Pool.map ~domains:3
      (fun i -> Array.fold_left ( + ) 0 (Pool.map ~domains:3 (( * ) i) xs))
      xs
  in
  check Alcotest.(array int) "a map inside a pool job completes"
    (Array.map (fun i -> i * 28) xs)
    nested

let test_engine_worker_failure () =
  (* Tenants whose req() traps: whichever domain claims one first, the
     coordinator or a worker, fails the run, and the engine re-raises
     the trap instead of hanging. *)
  let bad =
    { Tn.name = "bad";
      source = "void setup() { } \
                int req(int op, int a, int b) { return op / a; } \
                int main() { setup(); return req(1, 1, 0); }";
      seed = 3; requests = 4; mean_gap = 10_000.0;
      sample = (fun _ -> { Lg.op = 1; a = 0; b = 0 });
      fault_rate = 0.0 }
  in
  let mix =
    [| small_kv ~name:"kv0" ~seed:11 ~fault_rate:0.0; bad;
       small_kv ~name:"kv2" ~seed:37 ~fault_rate:0.0; bad |]
  in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "domains=%d: " domains in
      (match
         E.run ~domains ~perturb:(spin ~seed:domains 200) S.default_config mix
       with
       | _ -> Alcotest.fail (tag ^ "engine returned from a trapping tenant")
       | exception Cards_interp.Machine.Trap m ->
         check Alcotest.string (tag ^ "the trap is re-raised")
           "division by zero" m);
      (* Failures injected through the perturbation hook.  On
         small_mix its first two calls start the two program jobs
         (under tenants 0 and 1), then come three builds and the
         requests; a domain that finds nothing earlier in that order
         takes the next job that is ready, so with a worker the kv
         requests may start before the analytics tenant is built.  So
         the fourth call fails a build or an early request, the twelfth
         a request.  Either is re-raised, and only once every worker
         has returned: nothing starts after the re-raise.  Starts after
         the injection are reported, not bounded: a domain that cleared
         its failure check before the engine recorded the failure may
         begin one, and how many do depends on how soon the failing
         domain gets from its raise to that record. *)
      List.iter
        (fun at ->
          let tag = Printf.sprintf "%sfailure at call %d: " tag at in
          let starts = Atomic.make 0 and late = Atomic.make 0 in
          let failed = Atomic.make false in
          let spin = spin ~seed:(domains + at) 200 in
          let perturb i =
            if Atomic.get failed then Atomic.incr late;
            if Atomic.fetch_and_add starts 1 = at then begin
              Atomic.set failed true;
              failwith "injected"
            end;
            spin i
          in
          (match E.run ~domains ~perturb S.default_config (small_mix ()) with
           | _ -> Alcotest.fail (tag ^ "engine returned past a failure")
           | exception Failure m ->
             check Alcotest.string (tag ^ "the injected failure is re-raised")
               "injected" m);
          let after = Atomic.get starts in
          for _ = 1 to 100_000 do
            Domain.cpu_relax ()
          done;
          check Alcotest.int (tag ^ "every worker returned before the re-raise")
            after (Atomic.get starts);
          Printf.printf "%s%d start(s) after the injection\n" tag
            (Atomic.get late))
        [ 3; 11 ])
    [ 1; 4 ]

(* A program job that a worker runs fails.  The first call under a
   source's first tenant is that source's program job (the tenant
   cannot build or run before it), so the coordinator holds its own
   program job until a worker has started the other one, which
   fails. *)
let test_program_job_failure () =
  let coordinator = Domain.self () in
  let first_call = Array.init 2 (fun _ -> Atomic.make true) in
  let worker_failed = Atomic.make false in
  let starts = Atomic.make 0 in
  let perturb i =
    Atomic.incr starts;
    if i < 2 && Atomic.exchange first_call.(i) false then
      if Domain.self () <> coordinator then begin
        Atomic.set worker_failed true;
        failwith "injected in a program job"
      end
      else begin
        let deadline = Sys.time () +. 10.0 in
        while (not (Atomic.get worker_failed)) && Sys.time () < deadline do
          Domain.cpu_relax ()
        done
      end
  in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "domains=%d: " domains in
      Array.iter (fun f -> Atomic.set f true) first_call;
      Atomic.set worker_failed false;
      (match E.run ~domains ~perturb S.default_config (small_mix ()) with
       | _ -> Alcotest.fail (tag ^ "engine returned past a failure")
       | exception Failure m ->
         check Alcotest.string (tag ^ "the worker's failure is re-raised")
           "injected in a program job" m);
      check Alcotest.bool (tag ^ "a worker ran a program job") true
        (Atomic.get worker_failed);
      let after = Atomic.get starts in
      for _ = 1 to 100_000 do
        Domain.cpu_relax ()
      done;
      check Alcotest.int (tag ^ "every worker returned before the re-raise")
        after (Atomic.get starts))
    [ 1; 4 ]

(* ---------- 4. shared programs ---------- *)

let test_shared_programs () =
  let specs = small_mix () in
  let tenants, _ = S.build S.default_config specs in
  let program i = Tn.compiled tenants.(i) in
  check Alcotest.bool "kv0 and kv2 share one compiled program" true
    (program 0 == program 2);
  check Alcotest.bool "an1 has its own" true (program 1 != program 0);
  (* The isolation oracle's other arm compiles each tenant alone. *)
  let shared = S.run S.default_config specs in
  Array.iteri
    (fun i spec ->
      let solo = S.run_solo S.default_config ~mix_size:3 spec in
      let a = shared.S.tenants.(i) and b = solo.S.tenants.(0) in
      check Alcotest.bool (a.S.tr_name ^ ": records equal its solo run") true
        (a.S.tr_records = b.S.tr_records);
      check Alcotest.int (a.S.tr_name ^ ": setup cycles") b.S.tr_setup_cycles
        a.S.tr_setup_cycles;
      check Alcotest.int (a.S.tr_name ^ ": pinned grant")
        b.S.tr_pinned_granted a.S.tr_pinned_granted)
    specs

(* ---------- 5. a compile runs on any domain ---------- *)

module P = Cards.Pipeline
module W = Cards_workloads

(* The bundled examples: next to the test under dune, under the
   repository root when the suite runs from there. *)
let minic_examples () =
  let dir =
    List.find Sys.file_exists [ "../examples/minic"; "examples/minic" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat dir f)
               In_channel.input_all))

(* Everything a compile reports, read on the domain that ran it; the
   factorize counts only when the pass ran. *)
let compile_report (factorize, src) =
  let c = P.compile_source ~options:{ P.cards_options with factorize } src in
  let module Fz = Cards_transform.Factorize in
  ( Cards_ir.Printer.module_to_string c.P.instrumented,
    Cards_ir.Printer.module_to_string c.P.plain,
    c.P.infos,
    (c.P.static_guards, c.P.guards_removed, c.P.versioned_loops),
    if factorize then Some (Fz.splits_last_run (), Fz.soa_last_run ())
    else None )

let test_compile_any_domain () =
  let examples = minic_examples () in
  check Alcotest.bool "the bundled examples are there" true (examples <> []);
  let workloads =
    [ ("analytics", W.Analytics.source ~trips:200 ~query_passes:1);
      ("analytics-server", W.Analytics.source_server ~trips:200);
      ("analytics-aos", W.Analytics.source_aos ~trips:200 ~query_passes:1);
      ("bfs", W.Bfs.source ~nodes:200 ~edges:800 ~sources:1);
      ("ftfdapml", W.Ftfdapml.source ~cz:4 ~cym:4 ~cxm:4 ~steps:2);
      ("kv", W.Kv.source ~keys:256 ~nbuckets:64);
      ("listing1", W.Listing1.source ~elems:1024 ~ntimes:2) ]
    @ List.map
        (fun v -> ("chase-" ^ v, W.Pointer_chase.source ~variant:v ~scale:256
                                   ~passes:2))
        W.Pointer_chase.variants
  in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun (name, src) ->
           [ (name, (false, src)); (name ^ " factorized", (true, src)) ])
         examples
      @ List.map (fun (name, src) -> (name, (false, src))) workloads
      (* The one bundled source the SoA rewrite fires on. *)
      @ [ ("analytics-aos factorized",
           (true, W.Analytics.source_aos ~trips:200 ~query_passes:1)) ])
  in
  let seq = Array.map (fun (_, job) -> compile_report job) jobs in
  for round = 1 to 3 do
    let par = Pool.map ~domains:4 (fun (_, job) -> compile_report job) jobs in
    Array.iteri
      (fun k (name, _) ->
        check Alcotest.bool
          (Printf.sprintf "round %d: %s compiles as on one domain" round name)
          true
          (par.(k) = seq.(k)))
      jobs
  done

let suite =
  [ Alcotest.test_case "parallel = sequential (clean mix)" `Quick
      test_engine_matches_sequential;
    Alcotest.test_case "parallel = sequential (faulty tenant)" `Quick
      test_engine_matches_sequential_faulty;
    Alcotest.test_case "degenerate shapes (capped pool, solo)" `Quick
      test_engine_degenerate_shapes;
    Alcotest.test_case "perturbation stress (adversarial cell)" `Quick
      test_perturbation_quick;
    Alcotest.test_case "perturbation stress (full matrix)" `Slow
      test_perturbation_matrix;
    Alcotest.test_case "wire-event streams" `Quick test_traced_streams;
    Alcotest.test_case "mailbox poison" `Quick test_mailbox_poison;
    Alcotest.test_case "mailbox across domains" `Quick
      test_mailbox_cross_domain;
    Alcotest.test_case "mailbox try_pop" `Quick test_mailbox_try_pop;
    Alcotest.test_case "pool map order, empty, first failure" `Quick
      test_pool_map;
    Alcotest.test_case "pool reuses parked domains, nested map" `Quick
      test_pool_reuse;
    Alcotest.test_case "worker failure poisons the run" `Quick
      test_engine_worker_failure;
    Alcotest.test_case "program job failing on a worker" `Quick
      test_program_job_failure;
    Alcotest.test_case "shared programs" `Quick test_shared_programs;
    Alcotest.test_case "compile on any domain" `Quick
      test_compile_any_domain ]
