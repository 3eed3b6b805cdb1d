(* Tests for the runtime layer: address codec, cost tables, fabric,
   policies, prefetchers, and the runtime itself. *)

module R = Cards_runtime
module N = Cards_net

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---------- Addr ---------- *)

let test_addr_basics () =
  let a = R.Addr.encode ~ds:3 ~offset:4096 in
  check Alcotest.bool "managed" true (R.Addr.is_managed a);
  check Alcotest.int "ds" 3 (R.Addr.ds_of a);
  check Alcotest.int "offset" 4096 (R.Addr.offset_of a);
  let u = R.Addr.unmanaged ~offset:77 in
  check Alcotest.bool "unmanaged" false (R.Addr.is_managed u);
  check Alcotest.int "unmanaged offset" 77 (R.Addr.offset_of u)

let test_addr_ranges () =
  Alcotest.check_raises "handle 0 rejected"
    (Invalid_argument "Addr.encode: handle 0 out of range") (fun () ->
      ignore (R.Addr.encode ~ds:0 ~offset:0));
  Alcotest.check_raises "ds_of unmanaged"
    (Invalid_argument "Addr.ds_of: unmanaged address") (fun () ->
      ignore (R.Addr.ds_of 42))

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr encode/decode roundtrip" ~count:1000
    QCheck.(pair (int_range 1 60_000) (int_range 0 1_000_000_000))
    (fun (ds, offset) ->
      let ds = min ds R.Addr.max_handle in
      let a = R.Addr.encode ~ds ~offset in
      R.Addr.is_managed a && R.Addr.ds_of a = ds && R.Addr.offset_of a = offset)

let prop_addr_arith_stays_in_ds =
  QCheck.Test.make ~name:"pointer arithmetic preserves the handle" ~count:500
    QCheck.(triple (int_range 1 100) (int_range 0 100_000) (int_range 0 10_000))
    (fun (ds, offset, delta) ->
      let a = R.Addr.encode ~ds ~offset in
      R.Addr.ds_of (a + delta) = ds && R.Addr.offset_of (a + delta) = offset + delta)

(* ---------- Cost (Table 1 calibration) ---------- *)

let test_cost_table1 () =
  check Alcotest.int "CaRDS local read" 378 R.Cost.cards.guard_local_read;
  check Alcotest.int "CaRDS local write" 384 R.Cost.cards.guard_local_write;
  check Alcotest.int "TrackFM local read" 462 R.Cost.trackfm.guard_local_read;
  check Alcotest.int "TrackFM local write" 579 R.Cost.trackfm.guard_local_write

(* ---------- Fabric ---------- *)

let unit_scale = N.Fabric.unit_scale

(* Fault-free requests through the attempt API (rate 0 never fails). *)
let fetch f ~now ~bytes =
  Result.get_ok (N.Fabric.fetch_attempt f ~scale:unit_scale ~now ~bytes)
let fetch_many f ~now ~sizes =
  Result.get_ok (N.Fabric.fetch_many_attempt f ~scale:unit_scale ~now ~sizes)

let test_fabric_59k () =
  (* Table 1: a 4 KiB demand fetch lands at ~59 K cycles. *)
  let f = N.Fabric.create N.Fabric.default_config in
  let t =
    (fetch f ~now:0 ~bytes:R.Cost.cards_remote_object_bytes).t_complete
  in
  check Alcotest.bool "within 5% of 59K" true
    (abs (t - 59_000) < 59_000 / 20)

let test_fabric_trackfm_46k () =
  let f = N.Fabric.create N.Fabric.trackfm_config in
  let t = (fetch f ~now:0 ~bytes:4096).t_complete in
  check Alcotest.bool "within 5% of 46K" true (abs (t - 46_000) < 46_000 / 20)

let test_fabric_queueing () =
  let f = N.Fabric.create N.Fabric.default_config in
  let t1 = (fetch f ~now:0 ~bytes:4096).t_complete in
  let t2 = (fetch f ~now:0 ~bytes:4096).t_complete in
  check Alcotest.bool "second transfer serializes" true (t2 > t1);
  let st = N.Fabric.stats f in
  check Alcotest.int "two fetches" 2 st.fetches;
  check Alcotest.int "bytes counted" 8192 st.fetched_bytes;
  check Alcotest.bool "queueing recorded" true (st.queue_in_cycles > 0);
  check Alcotest.int "no outbound queueing" 0 st.queue_out_cycles

let test_fabric_writeback_nonblocking () =
  let f = N.Fabric.create N.Fabric.default_config in
  N.Fabric.writeback f ~now:0 ~bytes:4096;
  (* Outbound traffic must not delay inbound fetches. *)
  let t = (fetch f ~now:0 ~bytes:4096).t_complete in
  check Alcotest.bool "fetch unaffected by writeback" true (t < 60_000);
  check Alcotest.int "writeback counted" 1 (N.Fabric.stats f).writebacks;
  (* A second immediate writeback queues behind the first on the
     outbound link; the wait lands in the outbound counter only. *)
  N.Fabric.writeback f ~now:0 ~bytes:4096;
  let st = N.Fabric.stats f in
  check Alcotest.bool "outbound queueing recorded" true (st.queue_out_cycles > 0)

let test_fabric_bandwidth_term () =
  let fresh () = N.Fabric.create N.Fabric.default_config in
  let small = (fetch (fresh ()) ~now:0 ~bytes:64).t_complete in
  let big = (fetch (fresh ()) ~now:0 ~bytes:65536).t_complete in
  check Alcotest.bool "bigger transfers take longer" true (big > small + 10_000)

let test_fabric_fetch_many_amortizes () =
  (* Four 4 KiB objects in one request: the protocol cost is paid once,
     so the batch completes in a fraction of four serial fetches. *)
  let single =
    (fetch (N.Fabric.create N.Fabric.default_config) ~now:0 ~bytes:4096)
      .t_complete
  in
  let f = N.Fabric.create N.Fabric.default_config in
  let tr, completions = fetch_many f ~now:0 ~sizes:(Array.make 4 4096) in
  check Alcotest.int "one completion per object" 4 (Array.length completions);
  (* Per-object completions: strictly increasing, first = a plain
     fetch, last = proto + 4x serialization. *)
  check Alcotest.int "first object lands like a single fetch" single
    completions.(0);
  for i = 1 to 3 do
    check Alcotest.bool "completions increase" true
      (completions.(i) > completions.(i - 1))
  done;
  check Alcotest.int "transfer completes with its last object"
    completions.(3) tr.N.Fabric.t_complete;
  check Alcotest.bool "batch of 4 beats 2 serial fetches" true
    (tr.N.Fabric.t_complete < 2 * single);
  let st = N.Fabric.stats f in
  check Alcotest.int "objects counted as fetches" 4 st.fetches;
  check Alcotest.int "one batch" 1 st.batches;
  check Alcotest.int "batched objects" 4 st.batched_objects;
  check Alcotest.int "bytes counted" (4 * 4096) st.fetched_bytes

let test_fabric_qp_dispatch () =
  (* Two queue pairs: two simultaneous fetches ride different QPs with
     no queueing; the third queues behind the least-loaded one. *)
  let f =
    N.Fabric.create { N.Fabric.default_config with qp_count = 2 }
  in
  let t1 = fetch f ~now:0 ~bytes:4096 in
  let t2 = fetch f ~now:0 ~bytes:4096 in
  check Alcotest.int "first not queued" 0 t1.N.Fabric.t_queued;
  check Alcotest.int "second not queued" 0 t2.N.Fabric.t_queued;
  check Alcotest.bool "different QPs" true
    (t1.N.Fabric.t_qp <> t2.N.Fabric.t_qp);
  let t3 = fetch f ~now:0 ~bytes:4096 in
  check Alcotest.bool "third queues" true (t3.N.Fabric.t_queued > 0);
  let st = N.Fabric.stats f in
  check Alcotest.int "per-QP counters sized" 2
    (Array.length st.qp_queue_cycles);
  check Alcotest.int "per-QP queueing sums to the total" st.queue_in_cycles
    (Array.fold_left ( + ) 0 st.qp_queue_cycles)

let test_fabric_writeback_charges_proto () =
  (* Writebacks are posted, but the request still crosses the wire:
     outbound occupancy covers protocol + serialization, same cost
     structure as a fetch (DESIGN.md §fabric). *)
  let cfg = N.Fabric.default_config in
  let f = N.Fabric.create cfg in
  N.Fabric.writeback f ~now:0 ~bytes:4096;
  let busy = N.Fabric.outbound_busy_until f in
  check Alcotest.bool "outbound occupied past proto_cycles" true
    (busy > cfg.proto_cycles);
  check Alcotest.bool "occupancy matches a fetch's cost" true
    (busy = N.Fabric.nominal_fetch_cycles f ~bytes:4096)

let test_fabric_writeback_many_coalesces () =
  (* A coalesced eviction burst pays the protocol cost once. *)
  let f1 = N.Fabric.create N.Fabric.default_config in
  N.Fabric.writeback f1 ~now:0 ~bytes:4096;
  N.Fabric.writeback f1 ~now:0 ~bytes:4096;
  let serial = N.Fabric.outbound_busy_until f1 in
  let f2 = N.Fabric.create N.Fabric.default_config in
  N.Fabric.writeback_many f2 ~now:0 ~count:2 ~bytes:8192;
  let batched = N.Fabric.outbound_busy_until f2 in
  check Alcotest.bool "batched burst frees the wire sooner" true
    (batched < serial);
  let st = N.Fabric.stats f2 in
  check Alcotest.int "objects counted" 2 st.writebacks;
  check Alcotest.int "one outbound batch" 1 st.wb_batches;
  check Alcotest.int "bytes counted" 8192 st.written_bytes

let prop_fabric_completion_monotone =
  QCheck.Test.make ~name:"fabric completions are monotone in time" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 64 65536))
    (fun sizes ->
      let f = N.Fabric.create N.Fabric.default_config in
      let now = ref 0 in
      let last = ref 0 in
      List.for_all
        (fun bytes ->
          now := !now + 100;
          let t = (fetch f ~now:!now ~bytes).t_complete in
          let ok = t >= !last && t > !now in
          last := t;
          ok)
        sizes)

(* ---------- Policy ---------- *)

let infos_n n =
  Array.init n (fun sid ->
      { (R.Static_info.default ~sid) with
        score_use = n - sid;        (* descending: sid 0 hottest *)
        score_reach = sid })        (* ascending: last sid deepest *)

let count_true = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0

let test_policy_linear () =
  let p = R.Policy.pinned_preference R.Policy.Linear ~infos:(infos_n 10) ~k:0.5 in
  check Alcotest.int "five pinned" 5 (count_true p);
  for i = 0 to 4 do
    check Alcotest.bool "prefix pinned" true p.(i)
  done

let test_policy_all () =
  let infos = infos_n 6 in
  check Alcotest.int "all-remotable pins none" 0
    (count_true (R.Policy.pinned_preference R.Policy.All_remotable ~infos ~k:1.0));
  check Alcotest.int "all-local pins all" 6
    (count_true (R.Policy.pinned_preference R.Policy.All_local ~infos ~k:0.0))

let test_policy_max_use () =
  let p = R.Policy.pinned_preference R.Policy.Max_use ~infos:(infos_n 10) ~k:0.3 in
  (* scores descend with sid: top-3 = sids 0,1,2 *)
  check Alcotest.bool "top scorers pinned" true (p.(0) && p.(1) && p.(2));
  check Alcotest.int "exactly three" 3 (count_true p)

let test_policy_max_reach () =
  let p = R.Policy.pinned_preference R.Policy.Max_reach ~infos:(infos_n 10) ~k:0.2 in
  check Alcotest.bool "deepest pinned" true (p.(9) && p.(8));
  check Alcotest.int "exactly two" 2 (count_true p)

let test_policy_random_deterministic () =
  let infos = infos_n 20 in
  let a = R.Policy.pinned_preference (R.Policy.Random 5) ~infos ~k:0.5 in
  let b = R.Policy.pinned_preference (R.Policy.Random 5) ~infos ~k:0.5 in
  check Alcotest.bool "same seed, same set" true (a = b);
  check Alcotest.int "half pinned" 10 (count_true a)

let test_policy_explicit () =
  let set = [| true; false; true |] in
  let p = R.Policy.pinned_preference (R.Policy.Explicit set) ~infos:(infos_n 3) ~k:0.0 in
  check Alcotest.bool "copied through" true (p = set);
  Alcotest.check_raises "length checked"
    (Invalid_argument "Policy.pinned_preference: explicit set has wrong length")
    (fun () ->
      ignore (R.Policy.pinned_preference (R.Policy.Explicit set) ~infos:(infos_n 4) ~k:0.0))

let prop_policy_quota =
  QCheck.Test.make ~name:"k-fraction quota respected" ~count:200
    QCheck.(pair (int_range 1 40) (float_range 0.0 1.0))
    (fun (n, k) ->
      let infos = infos_n n in
      let quota = int_of_float (ceil (k *. float_of_int n)) in
      List.for_all
        (fun pol ->
          count_true (R.Policy.pinned_preference pol ~infos ~k) = quota)
        [ R.Policy.Linear; R.Policy.Random 3; R.Policy.Max_use; R.Policy.Max_reach ])

(* ---------- Prefetcher ---------- *)

let no_scan _ _ = ()

(* One prefetcher call on a fresh buffer: the (handle, object) pairs it
   appended, in emission order. *)
let call ?(scan = no_scan) p ~obj ~missed =
  let b = R.Prefetcher.targets () in
  R.Prefetcher.on_access p b ~obj ~missed ~scan;
  R.Prefetcher.to_list b

(* ...and just the objects. *)
let objs_of ?scan p ~obj ~missed = List.map snd (call ?scan p ~obj ~missed)

(* Does [l] hold [k] consecutive ascending objects somewhere? *)
let has_run k l =
  let rec go prev len = function
    | [] -> len >= k
    | o :: rest ->
      if len >= k then true
      else if o = prev + 1 then go o (len + 1) rest
      else go o 1 rest
  in
  match l with [] -> k <= 0 | o :: rest -> go o 1 rest

let test_stride_prefetcher_locks () =
  let p = R.Prefetcher.stride ~depth:3 in
  (* Feed a stride-1 stream; after the window fills it must predict
     ahead, emitting the window as consecutive objects. *)
  let all = ref [] in
  let calls = ref [] in
  for o = 0 to 9 do
    let out = objs_of p ~obj:o ~missed:true in
    calls := out :: !calls;
    all := !all @ out
  done;
  (* The issued window must reach past the last access by the depth. *)
  check Alcotest.bool "window covers obj+depth" true
    (List.mem 10 !all && List.mem 11 !all && List.mem 12 !all);
  (* Targets only ever point ahead of the access stream. *)
  check Alcotest.bool "all targets ahead" true (List.for_all (fun o -> o >= 5) !all);
  (* No object is requested twice... *)
  check Alcotest.int "no duplicate objects"
    (List.length !all)
    (List.length (List.sort_uniq compare !all));
  (* ...and the window arrives in chunks a batching fabric can
     coalesce: one call appends at least three consecutive objects. *)
  check Alcotest.bool "one call appends >= 3 consecutive objects" true
    (List.exists (has_run 3) !calls)

let test_stride_prefetcher_majority () =
  let p = R.Prefetcher.stride ~depth:2 in
  (* Mostly stride 2 with one hiccup: majority must still lock 2. *)
  List.iter
    (fun o -> ignore (call p ~obj:o ~missed:false))
    [ 0; 2; 4; 6; 7; 9; 11; 13 ];
  check (Alcotest.list Alcotest.int) "stride 2 locked" [ 17; 19 ]
    (objs_of p ~obj:15 ~missed:false)

let test_stride_prefetcher_random_stays_quiet () =
  let p = R.Prefetcher.stride ~depth:4 in
  let rng = Cards_util.Rng.create 11 in
  let noisy = ref 0 in
  for _ = 1 to 50 do
    let o = Cards_util.Rng.int rng 10_000 in
    noisy := !noisy + List.length (objs_of p ~obj:o ~missed:true)
  done;
  check Alcotest.bool "no majority, few prefetches" true (!noisy < 20)

let test_greedy_scans_on_miss () =
  let p = R.Prefetcher.greedy ~fanout:2 in
  let scan b _ = List.iter (R.Prefetcher.push b 2) [ 7; 8; 9 ] in
  let out = call ~scan p ~obj:0 ~missed:true in
  check Alcotest.int "fanout bounded" 2 (List.length out);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "scan order, cross-structure handle kept" [ (2, 7); (2, 8) ] out;
  let out2 = call ~scan p ~obj:0 ~missed:false in
  check Alcotest.int "no scan on hit" 0 (List.length out2)

let test_jump_learns_second_traversal () =
  let p = R.Prefetcher.jump ~jump:2 ~depth:1 in
  let seq = [ 10; 20; 30; 40; 50 ] in
  (* First traversal: nothing useful predicted yet, table learns. *)
  List.iter (fun o -> ignore (call p ~obj:o ~missed:true)) seq;
  (* Second traversal: at 10 it should jump toward 30 (2 ahead). *)
  check Alcotest.bool "jump target learned" true
    (List.mem 30 (objs_of p ~obj:10 ~missed:true))

let test_jump_window_farthest_first () =
  (* The chain 1 -> 2 -> 3 -> 4 learned on the first traversal comes
     back farthest object first: the degradation cut keeps a prefix. *)
  let p = R.Prefetcher.jump ~jump:1 ~depth:3 in
  List.iter (fun o -> ignore (call p ~obj:o ~missed:false)) [ 1; 2; 3; 4; 5 ];
  check (Alcotest.list Alcotest.int) "farthest first" [ 4; 3; 2 ]
    (objs_of p ~obj:1 ~missed:true)

(* The in-place sort of a target buffer is [List.sort_uniq compare] on
   its pairs, duplicates and all. *)
let prop_targets_sort_uniq =
  QCheck.Test.make ~name:"target buffer sort_uniq = List.sort_uniq" ~count:500
    QCheck.(list (pair (int_range 0 3) (int_range 0 40)))
    (fun pairs ->
      let b = R.Prefetcher.targets () in
      List.iter (fun (h, o) -> R.Prefetcher.push b h o) pairs;
      R.Prefetcher.sort_uniq b;
      R.Prefetcher.to_list b = List.sort_uniq compare pairs)

let test_of_class () =
  check Alcotest.bool "no_prefetch -> none" true
    (R.Prefetcher.of_class R.Static_info.No_prefetch ~depth:4 = None);
  (match R.Prefetcher.of_class R.Static_info.Stride ~depth:4 with
   | Some p -> check Alcotest.string "stride" "stride" (R.Prefetcher.kind_name p)
   | None -> Alcotest.fail "expected stride");
  match R.Prefetcher.of_class R.Static_info.Jump_pointer ~depth:4 with
  | Some p -> check Alcotest.string "jump" "jump" (R.Prefetcher.kind_name p)
  | None -> Alcotest.fail "expected jump"

(* ---------- Runtime ---------- *)

let mk_rt ?(policy = R.Policy.All_local) ?(k = 1.0) ?(local = 1 lsl 22)
    ?(remot = 1 lsl 20) ?(prefetch = R.Runtime.Pf_none) n_infos =
  let infos = Array.init n_infos (fun sid -> R.Static_info.default ~sid) in
  R.Runtime.create
    { R.Runtime.default_config with
      policy; k; local_bytes = local; remotable_bytes = remot;
      prefetch_mode = prefetch }
    infos

let test_rt_pinned_alloc_untagged () =
  let rt = mk_rt 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:256 in
  check Alcotest.bool "pinned allocation is untagged" false (R.Addr.is_managed a);
  check Alcotest.bool "pinned bytes accounted" true (R.Runtime.pinned_bytes rt >= 256)

let test_rt_remotable_alloc_tagged () =
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:256 in
  check Alcotest.bool "remotable allocation is tagged" true (R.Addr.is_managed a);
  check Alcotest.int "handle embedded" h (R.Addr.ds_of a)

let test_rt_data_roundtrip () =
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:128 in
  R.Runtime.write_i64 rt a 12345;
  R.Runtime.write_f64 rt (a + 8) 2.75;
  check Alcotest.int "i64 roundtrip" 12345 (R.Runtime.read_i64 rt a);
  check (Alcotest.float 1e-12) "f64 roundtrip" 2.75 (R.Runtime.read_f64 rt (a + 8))

let test_rt_unmanaged_roundtrip () =
  let rt = mk_rt 0 in
  let a = R.Runtime.alloc_unmanaged rt ~size:64 in
  R.Runtime.write_i64 rt a (-7);
  check Alcotest.int "unmanaged i64" (-7) (R.Runtime.read_i64 rt a)

let test_rt_guard_costs () =
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  (* Object is resident right after allocation: local-read guard. *)
  let t0 = R.Runtime.now rt in
  R.Runtime.guard rt ~write:false a;
  check Alcotest.int "local read guard = 378" 378 (R.Runtime.now rt - t0);
  let t1 = R.Runtime.now rt in
  R.Runtime.guard rt ~write:true a;
  check Alcotest.int "local write guard = 384" 384 (R.Runtime.now rt - t1);
  let t2 = R.Runtime.now rt in
  R.Runtime.guard rt ~write:false 99 (* unmanaged *);
  check Alcotest.int "unmanaged custody check = 3" 3 (R.Runtime.now rt - t2)

let test_rt_remote_fault_cost () =
  (* Tiny cache: allocate two objects, evict the first, re-touch it. *)
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 ~local:8192 ~remot:4096 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  let b = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  ignore b;
  (* b's allocation evicted a (budget = one object). *)
  let t0 = R.Runtime.now rt in
  R.Runtime.guard rt ~write:false a;
  let dt = R.Runtime.now rt - t0 in
  check Alcotest.bool "remote fault ~59K cycles" true
    (dt > 55_000 && dt < 70_000);
  let tot = R.Rt_stats.total (R.Runtime.stats rt) in
  check Alcotest.int "one remote fault" 1 tot.remote_faults;
  check Alcotest.bool "one eviction" true (tot.evictions >= 1)

let test_rt_pinned_override_demotes () =
  (* Pinned budget too small: the structure is demoted at allocation
     and later allocations come back tagged. *)
  let rt = mk_rt ~local:8192 ~remot:4096 1 in (* pinned budget = 4096 *)
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  let b = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  check Alcotest.bool "first fits pinned (untagged)" false (R.Addr.is_managed a);
  check Alcotest.bool "second overrides to remotable (tagged)" true
    (R.Addr.is_managed b);
  let tot = R.Rt_stats.total (R.Runtime.stats rt) in
  check Alcotest.int "demotion recorded" 1 tot.demotions

let test_rt_loop_check () =
  let rt = mk_rt ~local:8192 ~remot:4096 2 in
  let h1 = R.Runtime.ds_init rt ~sid:0 in
  let h2 = R.Runtime.ds_init rt ~sid:1 in
  let a = R.Runtime.ds_alloc rt ~handle:h1 ~size:1024 in    (* pinned *)
  let big = R.Runtime.ds_alloc rt ~handle:h2 ~size:8192 in  (* demoted *)
  check Alcotest.bool "untagged base passes" true (R.Runtime.loop_check rt [ a ]);
  check Alcotest.bool "tagged base fails" false (R.Runtime.loop_check rt [ a; big ]);
  check Alcotest.bool "empty passes" true (R.Runtime.loop_check rt [])

let test_rt_clean_fault_fallback () =
  (* An unguarded access to an evicted object must still work (trap +
     fetch), and be counted as a clean fault. *)
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 ~local:8192 ~remot:4096 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  R.Runtime.write_i64 rt a 31337;
  (* Two further allocations: the first spends a's CLOCK second chance
     (the write set its reference bit), the second evicts it. *)
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  check Alcotest.int "data survives eviction+refetch" 31337 (R.Runtime.read_i64 rt a);
  let tot = R.Rt_stats.total (R.Runtime.stats rt) in
  check Alcotest.bool "clean fault recorded" true (tot.clean_faults >= 1)

let test_rt_dirty_eviction_writes_back () =
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 ~local:8192 ~remot:4096 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  R.Runtime.guard rt ~write:true a;
  R.Runtime.write_i64 rt a 1;
  (* Spend the second chance, then force the dirty eviction. *)
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  let fs = R.Runtime.fabric_stats rt in
  check Alcotest.bool "dirty eviction wrote back" true (fs.writebacks >= 1)

let test_rt_prefetch_hides_latency () =
  (* Sequential scan with stride prefetch vs without: prefetching must
     cut the total cycles. *)
  let scan prefetch =
    let rt =
      mk_rt ~policy:R.Policy.All_remotable ~k:0.0 ~local:(1 lsl 18)
        ~remot:(1 lsl 17) ~prefetch 1
    in
    let h = R.Runtime.ds_init rt ~sid:0 in
    let a = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 20) in
    (* Evict everything by allocating another large structure. *)
    let _ = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 20) in
    let t0 = R.Runtime.now rt in
    for i = 0 to 4095 do
      let addr = a + (i * 256) in
      R.Runtime.guard rt ~write:false addr;
      ignore (R.Runtime.read_i64 rt addr)
    done;
    R.Runtime.now rt - t0
  in
  let without = scan R.Runtime.Pf_none in
  let with_pf = scan R.Runtime.Pf_stride_only in
  check Alcotest.bool "prefetch cuts cycles" true
    (float_of_int with_pf < 0.8 *. float_of_int without)

let test_rt_prefetch_stats () =
  let rt =
    mk_rt ~policy:R.Policy.All_remotable ~k:0.0 ~local:(1 lsl 18)
      ~remot:(1 lsl 17) ~prefetch:R.Runtime.Pf_stride_only 1
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 20) in
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 20) in
  for i = 0 to 255 do
    let addr = a + (i * 4096) in
    R.Runtime.guard rt ~write:false addr;
    ignore (R.Runtime.read_i64 rt addr)
  done;
  let d = R.Rt_stats.ds_stats (R.Runtime.stats rt) h in
  check Alcotest.bool "prefetches issued" true (d.prefetch_issued > 0);
  check Alcotest.bool "prefetches used" true (d.prefetch_used > 0);
  let acc =
    match R.Rt_stats.prefetch_accuracy d with
    | Some a -> a
    | None -> Alcotest.fail "accuracy should have data after issues"
  in
  check Alcotest.bool "accuracy in range" true (acc >= 0.0 && acc <= 1.0);
  let cov = R.Rt_stats.prefetch_coverage d in
  check Alcotest.bool "coverage positive" true (cov > 0.0 && cov <= 1.0)

let test_rt_cross_structure_prefetch_at_frontier () =
  (* Regression: issuing a prefetch for another structure's object at
     the pool frontier must grow the target's flag array *before*
     reading it.  A greedy prefetcher on A chases a pointer to the last
     object of B. *)
  let infos =
    [| { (R.Static_info.default ~sid:0) with
         prefetch = R.Static_info.Greedy_recursive; obj_size = 64 };
       { (R.Static_info.default ~sid:1) with obj_size = 64 };
       { (R.Static_info.default ~sid:2) with obj_size = 64 } |]
  in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 20; remotable_bytes = 64 * 64 }
      infos
  in
  let h_a = R.Runtime.ds_init rt ~sid:0 in
  let h_b = R.Runtime.ds_init rt ~sid:1 in
  let h_c = R.Runtime.ds_init rt ~sid:2 in
  let b = R.Runtime.ds_alloc rt ~handle:h_b ~size:(128 * 64) in
  let a = R.Runtime.ds_alloc rt ~handle:h_a ~size:64 in
  (* A's only object points at B's frontier object. *)
  R.Runtime.write_i64 rt a (b + (127 * 64));
  (* Flood the cache so both A's object and B's frontier are evicted. *)
  let _ = R.Runtime.ds_alloc rt ~handle:h_c ~size:(128 * 64) in
  (* Miss on A: the greedy scan emits the cross-structure target; the
     issue path must not read past B's flag array. *)
  R.Runtime.guard rt ~write:false a;
  ignore (R.Runtime.read_i64 rt a);
  let sb = R.Rt_stats.ds_stats (R.Runtime.stats rt) h_b in
  check Alcotest.bool "frontier prefetch issued on B" true
    (sb.prefetch_issued >= 1)

(* ---------- layout-aware prefetch sizing (byte budgets) ---------- *)

(* The eviction+scan workload under an explicit prefetch sizing: one
   structure of [obj] bytes per object, scanned object by object after
   a flood eviction.  Returns every observable — total cycles, the
   aggregate and per-ds counters, and the fabric stats. *)
let sized_scan ?prefetch_bytes ?(depth = 4) ~obj () =
  let infos = [| { (R.Static_info.default ~sid:0) with obj_size = obj } |] in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 20; remotable_bytes = 1 lsl 17;
        prefetch_mode = R.Runtime.Pf_stride_only;
        prefetch_depth = depth; prefetch_bytes }
      infos
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(256 * obj) in
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 18) in
  for i = 0 to 255 do
    let addr = a + (i * obj) in
    R.Runtime.guard rt ~write:false addr;
    ignore (R.Runtime.read_i64 rt addr)
  done;
  ( R.Runtime.now rt,
    R.Rt_stats.total (R.Runtime.stats rt),
    R.Rt_stats.ds_stats (R.Runtime.stats rt) h,
    R.Runtime.fabric_stats rt )

let test_rt_prefetch_bytes_matches_depth () =
  (* A byte budget of d * obj_size must be bit-identical to the fixed
     depth d — the byte mode changes how the depth is derived, never
     what a given depth does.  The floor division and both clamps are
     pinned the same way. *)
  List.iter
    (fun (label, bytes, depth) ->
      let byte_run = sized_scan ~prefetch_bytes:bytes ~obj:4096 () in
      let depth_run = sized_scan ~depth ~obj:4096 () in
      check Alcotest.bool label true (byte_run = depth_run))
    [ ("4 objects of budget = depth 4", 4 * 4096, 4);
      ("floor division (16x + change = depth 16)", (16 * 4096) + 123, 16);
      ("clamped up to depth 1", 100, 1);
      ("clamped down to depth 64", 1 lsl 30, 64) ]

let test_rt_prefetch_bytes_smaller_objects_deeper () =
  (* The factorization payoff: under the same byte budget, a structure
     of 512 B objects runs 32 deep where 4 KiB objects run 4 deep —
     checked against the explicit depths, so the derivation itself is
     what's under test. *)
  let budget = 16 * 1024 in
  check Alcotest.bool "512 B objects run 32 deep" true
    (sized_scan ~prefetch_bytes:budget ~obj:512 ()
     = sized_scan ~depth:32 ~obj:512 ());
  check Alcotest.bool "4 KiB objects run 4 deep" true
    (sized_scan ~prefetch_bytes:budget ~obj:4096 ()
     = sized_scan ~depth:4 ~obj:4096 ());
  (* And the two depths genuinely behave differently at 512 B. *)
  check Alcotest.bool "deeper run is observable" true
    (sized_scan ~prefetch_bytes:budget ~obj:512 ()
     <> sized_scan ~depth:4 ~obj:512 ())

let test_rt_prefetch_bytes_accounting_exact () =
  (* Mixed object sizes under one byte budget: per-structure
     fetched-bytes must still sum exactly to the fabric total. *)
  let infos =
    [| R.Static_info.default ~sid:0;  (* 4096 B objects, depth 4 *)
       { (R.Static_info.default ~sid:1) with obj_size = 512 } (* depth 32 *) |]
  in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 21; remotable_bytes = 1 lsl 17;
        prefetch_mode = R.Runtime.Pf_stride_only;
        prefetch_bytes = Some (16 * 1024) }
      infos
  in
  let h0 = R.Runtime.ds_init rt ~sid:0 in
  let h1 = R.Runtime.ds_init rt ~sid:1 in
  let a0 = R.Runtime.ds_alloc rt ~handle:h0 ~size:(128 * 4096) in
  let a1 = R.Runtime.ds_alloc rt ~handle:h1 ~size:(256 * 512) in
  let _ = R.Runtime.ds_alloc rt ~handle:h0 ~size:(1 lsl 18) in
  for i = 0 to 255 do
    let addr = a1 + (i * 512) in
    R.Runtime.guard rt ~write:false addr;
    ignore (R.Runtime.read_i64 rt addr)
  done;
  for i = 0 to 127 do
    let addr = a0 + (i * 4096) in
    R.Runtime.guard rt ~write:false addr;
    ignore (R.Runtime.read_i64 rt addr)
  done;
  let s0 = R.Rt_stats.ds_stats (R.Runtime.stats rt) h0 in
  let s1 = R.Rt_stats.ds_stats (R.Runtime.stats rt) h1 in
  let fs = R.Runtime.fabric_stats rt in
  check Alcotest.int "fetched bytes sum exactly"
    fs.N.Fabric.fetched_bytes
    (s0.fetched_bytes + s1.fetched_bytes);
  check Alcotest.bool "both structures prefetched" true
    (s0.prefetch_issued > 0 && s1.prefetch_issued > 0)

let test_rt_over_budget_counted () =
  (* Regression: a deep jump-pointer chase puts more objects in flight
     than the remotable budget holds; eviction cannot reclaim data
     still on the wire, so it must give up *and say so*. *)
  let infos =
    [| { (R.Static_info.default ~sid:0) with
         prefetch = R.Static_info.Jump_pointer; obj_size = 4096 } |]
  in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 20;
        (* ten objects: smaller than the jump window (4·depth = 16) *)
        remotable_bytes = 10 * 4096 }
      infos
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(256 * 4096) in
  let touch i =
    let addr = a + (i * 4096) in
    R.Runtime.guard rt ~write:false addr;
    ignore (R.Runtime.read_i64 rt addr)
  in
  (* First traversal teaches the jump table i -> i+8. *)
  for i = 0 to 255 do
    touch i
  done;
  check Alcotest.int "no overflow while learning" 0
    (R.Rt_stats.over_budget (R.Runtime.stats rt));
  (* Second traversal: the first access chases 16 objects into a
     10-object cache — everything in flight, nothing evictable. *)
  touch 0;
  check Alcotest.bool "occupancy overflow counted" true
    (R.Rt_stats.over_budget (R.Runtime.stats rt) > 0)

let test_rt_batching_reduces_cycles () =
  (* The tentpole, end to end: the same sequential scan, batched versus
     per-object fabric; identical data, fewer cycles. *)
  let scan batching =
    let rt =
      R.Runtime.create
        { R.Runtime.default_config with
          policy = R.Policy.All_remotable; k = 0.0;
          local_bytes = 1 lsl 18; remotable_bytes = 1 lsl 17;
          prefetch_mode = R.Runtime.Pf_stride_only;
          batching;
          fabric_config =
            { R.Runtime.default_config.fabric_config with
              qp_count = (if batching then 2 else 1) } }
        [| R.Static_info.default ~sid:0 |]
    in
    let h = R.Runtime.ds_init rt ~sid:0 in
    let a = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 20) in
    let _ = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 20) in
    let t0 = R.Runtime.now rt in
    for i = 0 to 4095 do
      let addr = a + (i * 256) in
      R.Runtime.guard rt ~write:false addr;
      ignore (R.Runtime.read_i64 rt addr)
    done;
    (R.Runtime.now rt - t0, R.Runtime.fabric_stats rt)
  in
  let unbatched, fs_u = scan false in
  let batched, fs_b = scan true in
  check Alcotest.bool "batching cuts scan cycles" true (batched < unbatched);
  check Alcotest.int "unbatched path never batches" 0 fs_u.batches;
  check Alcotest.bool "batched path coalesced requests" true (fs_b.batches > 0);
  check Alcotest.bool "batches carry multiple objects" true
    (fs_b.batched_objects >= 2 * fs_b.batches)

let test_rt_wild_pointer_rejected () =
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:64 in
  let _ = R.Runtime.alloc_unmanaged rt ~size:16 in
  (* Every heap entry point fails the same named way on each kind of
     wild address: a handle never issued (inside and beyond the
     structure table), a managed offset beyond its pool, and an
     unmanaged access reaching past the segment. *)
  let regs = Array.make 1 0.0 in
  let accesses =
    [ ("read_i64", fun a -> ignore (R.Runtime.read_i64 rt a));
      ("write_i64", fun a -> R.Runtime.write_i64 rt a 1);
      ("read_f64_into", fun a -> R.Runtime.read_f64_into rt a regs 0);
      ("write_f64_from", fun a -> R.Runtime.write_f64_from rt a regs 0) ]
  in
  let wild =
    [ (R.Addr.encode ~ds:(h + 5) ~offset:0,
       Printf.sprintf "bad handle %d" (h + 5));
      (R.Addr.encode ~ds:R.Addr.max_handle ~offset:0,
       Printf.sprintf "bad handle %d" R.Addr.max_handle);
      (R.Addr.encode ~ds:h ~offset:1_000_000,
       Printf.sprintf "wild pointer: ds %d offset 1000000 beyond pool (64 bytes)"
         h);
      (R.Addr.unmanaged ~offset:16,
       "wild unmanaged pointer: offset 16 (segment 16 bytes)") ]
  in
  List.iter
    (fun (name, access) ->
      List.iter
        (fun (addr, msg) ->
          Alcotest.check_raises (name ^ ": " ^ msg)
            (R.Runtime.Runtime_error msg) (fun () -> access addr))
        wild)
    accesses;
  match R.Runtime.ds_alloc rt ~handle:99 ~size:8 with
  | _ -> Alcotest.fail "expected bad handle error"
  | exception R.Runtime.Runtime_error _ -> ()

let test_rt_speculative_guard_benign () =
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 1 in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:64 in
  (* Hoisted guards may target past-the-pool addresses: must not raise. *)
  R.Runtime.guard rt ~write:false (R.Addr.encode ~ds:h ~offset:1_000_000);
  R.Runtime.guard rt ~write:true (R.Addr.encode ~ds:(h + 5) ~offset:0)

let test_rt_report () =
  let rt = mk_rt ~policy:R.Policy.All_remotable ~k:0.0 2 in
  let h1 = R.Runtime.ds_init rt ~sid:0 in
  let _h2 = R.Runtime.ds_init rt ~sid:1 in
  let _ = R.Runtime.ds_alloc rt ~handle:h1 ~size:100 in
  let rep = R.Runtime.report rt in
  check Alcotest.int "two structures" 2 (List.length rep);
  let r1 = List.hd rep in
  check Alcotest.int "sid" 0 r1.r_sid;
  check Alcotest.bool "bytes recorded" true (r1.r_bytes >= 100)

(* ---------- adaptive prefetch selection ---------- *)

let test_adaptive_drops_useless_prefetcher () =
  (* A greedy-classified structure whose pointer fields lead to objects
     that are never accessed: every prefetch is wasted, accuracy stays
     at zero, and the adaptive runtime must switch policies. *)
  let infos =
    [| { (R.Static_info.default ~sid:0) with
         prefetch = R.Static_info.Greedy_recursive; obj_size = 64 };
       { (R.Static_info.default ~sid:1) with obj_size = 64 } |]
  in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 14; remotable_bytes = 1 lsl 13;
        prefetch_mode = R.Runtime.Pf_adaptive; prefetch_depth = 2 }
      infos
  in
  let h_a = R.Runtime.ds_init rt ~sid:0 in
  let h_b = R.Runtime.ds_init rt ~sid:1 in
  let n = 4096 in
  let a = R.Runtime.ds_alloc rt ~handle:h_a ~size:(n * 64) in
  let b = R.Runtime.ds_alloc rt ~handle:h_b ~size:(n * 64) in
  (* Fill every object of A with pointers into B (the decoys). *)
  for i = 0 to n - 1 do
    R.Runtime.write_i64 rt (a + (i * 64)) (b + (i * 64))
  done;
  (* Sweep A repeatedly with a cache far too small: all misses, greedy
     scans fire, decoys never get used. *)
  for _ = 1 to 3 do
    for i = 0 to n - 1 do
      let addr = a + (i * 64) in
      R.Runtime.guard rt ~write:false addr;
      ignore (R.Runtime.read_i64 rt addr)
    done
  done;
  let rep_a =
    List.find (fun (r : R.Runtime.ds_report) -> r.r_handle = h_a)
      (R.Runtime.report rt)
  in
  check Alcotest.bool "adaptive switched at least once" true
    (rep_a.r_pf_switches >= 1);
  check Alcotest.bool "greedy abandoned" true (rep_a.r_prefetcher <> "greedy")

let test_adaptive_keeps_good_prefetcher () =
  (* A stride-classified structure swept sequentially: accuracy is
     high, so adaptive mode must not switch away. *)
  let infos =
    [| { (R.Static_info.default ~sid:0) with prefetch = R.Static_info.Stride } |]
  in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 18; remotable_bytes = 1 lsl 17;
        prefetch_mode = R.Runtime.Pf_adaptive }
      infos
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 21) in
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 21) in
  (* Dense sequential sweep (many accesses per object): stride
     prefetches run far enough ahead to be timely, so the adaptive
     runtime has no reason to switch. *)
  for pass = 1 to 4 do
    ignore pass;
    for i = 0 to 511 do
      for w = 0 to 63 do
        let addr = a + (i * 4096) + (w * 64) in
        R.Runtime.guard rt ~write:false addr;
        ignore (R.Runtime.read_i64 rt addr)
      done
    done
  done;
  let rep =
    List.find (fun (r : R.Runtime.ds_report) -> r.r_handle = h)
      (R.Runtime.report rt)
  in
  check Alcotest.int "no switches" 0 rep.r_pf_switches;
  check Alcotest.string "still stride" "stride" rep.r_prefetcher

let test_adaptive_walks_every_candidate () =
  (* Random reads over a structure 32x its cache: nearly every access
     is a demand fault, so coverage stays near zero whatever prefetcher
     runs and every epoch ends in a verdict.  The structure walks every
     candidate from the compiler's class on, turns prefetching off for
     the re-exploration cool-down, and then starts over at the head of
     the order. *)
  let infos =
    [| { (R.Static_info.default ~sid:0) with
         prefetch = R.Static_info.Greedy_recursive; obj_size = 64 } |]
  in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 14; remotable_bytes = 1 lsl 13;
        prefetch_mode = R.Runtime.Pf_adaptive; prefetch_depth = 2 }
      infos
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let n = 4096 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(n * 64) in
  let rng = Cards_util.Rng.create 7 in
  let state () =
    let r =
      List.find (fun (r : R.Runtime.ds_report) -> r.r_handle = h)
        (R.Runtime.report rt)
    in
    (r.r_prefetcher, r.r_pf_switches)
  in
  let epoch () =
    for _ = 1 to 1024 do
      R.Runtime.guard rt ~write:false (a + (64 * Cards_util.Rng.int rng n))
    done
  in
  let step = Alcotest.(pair string int) in
  check step "compiler's class first" ("greedy", 0) (state ());
  List.iteri
    (fun i expected ->
      epoch ();
      check step (Printf.sprintf "after epoch %d" (i + 1)) expected (state ()))
    [ ("stride", 1); ("jump", 2); ("off", 3); ("off", 3); ("off", 3);
      ("off", 3); ("greedy", 4); ("stride", 5) ]

let test_rt_config_validation () =
  match
    R.Runtime.create
      { R.Runtime.default_config with local_bytes = 10; remotable_bytes = 20 }
      [||]
  with
  | _ -> Alcotest.fail "expected config rejection"
  | exception R.Runtime.Runtime_error _ -> ()

(* ---------- Fault injection (fabric) ---------- *)

let all_kinds = [ N.Fabric.Transient; N.Fabric.Late; N.Fabric.Duplicate ]

let fault_fabric ?(rate = 1.0) ?(seed = 3) kinds =
  N.Fabric.create
    { N.Fabric.default_config with
      faults =
        { N.Fabric.fault_rate = rate; fault_seed = seed; fault_kinds = kinds } }

let proto = 55_800 (* default_config.proto_cycles *)

(* The batch input of the per-kind fault tests: one request, 3 objects. *)
let batch3 = Array.make 3 4096

let test_fabric_fault_transient () =
  let f = fault_fabric [ N.Fabric.Transient ] in
  (match N.Fabric.fetch_attempt f ~scale:unit_scale ~now:0 ~bytes:4096 with
   | Ok _ -> Alcotest.fail "rate-1 transient must NACK"
   | Error fl ->
     (* The NACK comes back a protocol round-trip after the QP picked
        the attempt up; the failed attempt still burned the QP. *)
     check Alcotest.int "picked up immediately" 0 fl.N.Fabric.f_start;
     check Alcotest.int "NACK after proto" proto fl.N.Fabric.f_fail);
  let st = N.Fabric.stats f in
  check Alcotest.int "transient counted" 1 st.faults_transient;
  check Alcotest.int "failed fetch counted" 1 st.failed_fetches;
  check Alcotest.int "no fetch completed" 0 st.fetches;
  (* A NACK rejects the whole batch: one turnaround, nothing counted
     as fetched or batched. *)
  let f = fault_fabric [ N.Fabric.Transient ] in
  (match N.Fabric.fetch_many_attempt f ~scale:unit_scale ~now:0 ~sizes:batch3 with
   | Ok _ -> Alcotest.fail "rate-1 transient must NACK the batch"
   | Error fl ->
     check Alcotest.int "batch NACK after proto" proto fl.N.Fabric.f_fail);
  let st = N.Fabric.stats f in
  check Alcotest.int "batch transient counted" 1 st.faults_transient;
  check Alcotest.int "NACKed batch fetches nothing" 0 st.fetches;
  check Alcotest.int "NACKed batch is no batch" 0 st.batches;
  check Alcotest.int "NACKed batch carries no objects" 0 st.batched_objects

(* The congestion delay rides in the queued/proto/ser split, so
   attribution still decomposes the whole stall. *)
let check_split (tr : N.Fabric.transfer) ~now =
  check Alcotest.int "split covers the stall" (tr.t_complete - now)
    (tr.t_queued + tr.t_proto + tr.t_ser)

let test_fabric_fault_late () =
  let nominal =
    (fetch (N.Fabric.create N.Fabric.default_config) ~now:0 ~bytes:4096)
      .t_complete
  in
  let f = fault_fabric [ N.Fabric.Late ] in
  (match N.Fabric.fetch_attempt f ~scale:unit_scale ~now:0 ~bytes:4096 with
   | Error _ -> Alcotest.fail "a late transfer still completes"
   | Ok tr ->
     check Alcotest.bool "tagged late" true
       (tr.N.Fabric.t_fault = Some N.Fabric.Late);
     check Alcotest.bool "completes after nominal" true
       (tr.N.Fabric.t_complete > nominal);
     check_split tr ~now:0);
  check Alcotest.int "late counted" 1 (N.Fabric.stats f).faults_late;
  (* A late batch: the whole response stream lands behind the same
     congestion delay. *)
  let _, clean =
    fetch_many (N.Fabric.create N.Fabric.default_config) ~now:0 ~sizes:batch3
  in
  let f = fault_fabric [ N.Fabric.Late ] in
  (match N.Fabric.fetch_many_attempt f ~scale:unit_scale ~now:0 ~sizes:batch3 with
   | Error _ -> Alcotest.fail "a late batch still completes"
   | Ok (tr, completions) ->
     check Alcotest.bool "batch tagged late" true
       (tr.N.Fabric.t_fault = Some N.Fabric.Late);
     let delay = completions.(0) - clean.(0) in
     check Alcotest.bool "batch lands late" true (delay > 0);
     check (Alcotest.array Alcotest.int) "every object equally late"
       (Array.map (fun c -> c + delay) clean) completions;
     check Alcotest.int "transfer completes with its last object"
       completions.(2) tr.N.Fabric.t_complete;
     check_split tr ~now:0);
  let st = N.Fabric.stats f in
  check Alcotest.int "late batch counted" 1 st.faults_late;
  check Alcotest.int "late batch delivered" 1 st.batches

let test_fabric_fault_duplicate () =
  let nominal =
    (fetch (N.Fabric.create N.Fabric.default_config) ~now:0 ~bytes:4096)
      .t_complete
  in
  let f = fault_fabric [ N.Fabric.Duplicate ] in
  (match N.Fabric.fetch_attempt f ~scale:unit_scale ~now:0 ~bytes:4096 with
   | Error _ -> Alcotest.fail "a duplicated transfer still completes"
   | Ok tr ->
     (* The data arrives on time; only the QP pays for draining the
        spurious second completion. *)
     check Alcotest.int "data on time" nominal tr.N.Fabric.t_complete;
     check Alcotest.bool "QP held draining the duplicate" true
       (N.Fabric.inbound_busy_until f > tr.N.Fabric.t_complete));
  check Alcotest.int "duplicate counted" 1 (N.Fabric.stats f).faults_dup;
  (* A duplicated batch: clean completions, the QP held one protocol
     turn past the clean batch. *)
  let clean_f = N.Fabric.create N.Fabric.default_config in
  let _, clean = fetch_many clean_f ~now:0 ~sizes:batch3 in
  let f = fault_fabric [ N.Fabric.Duplicate ] in
  (match N.Fabric.fetch_many_attempt f ~scale:unit_scale ~now:0 ~sizes:batch3 with
   | Error _ -> Alcotest.fail "a duplicated batch still completes"
   | Ok (tr, completions) ->
     check Alcotest.bool "batch tagged duplicate" true
       (tr.N.Fabric.t_fault = Some N.Fabric.Duplicate);
     check (Alcotest.array Alcotest.int) "batch data on time" clean
       completions);
  check Alcotest.int "QP held one protocol turn longer"
    (N.Fabric.inbound_busy_until clean_f + proto)
    (N.Fabric.inbound_busy_until f);
  check Alcotest.int "duplicate batch counted" 1 (N.Fabric.stats f).faults_dup

let test_fabric_attempt_rate0_identity () =
  (* Rate 0 never faults and consumes no randomness, whatever the seed
     and kinds: transfer for transfer the same schedule as the default
     fabric, and switching the rate on later draws the schedule a fresh
     fabric of that seed would. *)
  let a = fault_fabric ~rate:0.0 ~seed:7 all_kinds in
  let b = N.Fabric.create N.Fabric.default_config in
  for i = 0 to 9 do
    let now = i * 10_000 in
    check Alcotest.bool "identical transfer" true
      (N.Fabric.fetch_attempt a ~scale:unit_scale ~now ~bytes:4096
       = N.Fabric.fetch_attempt b ~scale:unit_scale ~now ~bytes:4096);
    check Alcotest.bool "identical batch" true
      (N.Fabric.fetch_many_attempt a ~scale:unit_scale ~now ~sizes:batch3
       = N.Fabric.fetch_many_attempt b ~scale:unit_scale ~now ~sizes:batch3);
    N.Fabric.writeback a ~now ~bytes:4096;
    N.Fabric.writeback b ~now ~bytes:4096
  done;
  check Alcotest.bool "identical stats" true
    (N.Fabric.stats a = N.Fabric.stats b);
  check Alcotest.int "identical outbound" (N.Fabric.outbound_busy_until b)
    (N.Fabric.outbound_busy_until a);
  let kinds f =
    List.init 16 (fun i ->
        let now = 1_000_000 + (i * 100_000) in
        match N.Fabric.fetch_attempt f ~scale:unit_scale ~now ~bytes:64 with
        | Ok tr -> tr.N.Fabric.t_fault
        | Error _ -> Some N.Fabric.Transient)
  in
  N.Fabric.set_fault_rate a 0.5;
  check Alcotest.bool "no randomness consumed at rate 0" true
    (kinds a = kinds (fault_fabric ~rate:0.5 ~seed:7 all_kinds))

let test_fabric_reliable_never_faults () =
  let f = fault_fabric all_kinds in
  let tr = N.Fabric.fetch_reliable f ~scale:unit_scale ~now:0 ~bytes:4096 in
  check Alcotest.bool "no fault on the reliable channel" true
    (tr.N.Fabric.t_fault = None);
  (* Send + end-to-end ack: one extra protocol round on top of the
     nominal one-sided fetch. *)
  check Alcotest.int "costs 2x proto + ser"
    (N.Fabric.nominal_fetch_cycles f ~bytes:4096 + proto)
    tr.N.Fabric.t_complete;
  check Alcotest.int "escalation counted" 1
    (N.Fabric.stats f).reliable_fetches

let test_fabric_wb_fault_absorbed () =
  let clean = N.Fabric.create N.Fabric.default_config in
  N.Fabric.writeback clean ~now:0 ~bytes:4096;
  let clean_busy = N.Fabric.outbound_busy_until clean in
  let f = fault_fabric all_kinds in
  N.Fabric.writeback f ~now:0 ~bytes:4096;
  (* Posted writes: the caller never sees the fault, the outbound
     direction just stays occupied longer. *)
  check Alcotest.bool "outbound held longer" true
    (N.Fabric.outbound_busy_until f > clean_busy);
  let st = N.Fabric.stats f in
  check Alcotest.bool "wb fault counted" true (st.wb_faults >= 1);
  check Alcotest.int "writeback still counted" 1 st.writebacks

let test_fabric_now_backwards_rejected () =
  let f = N.Fabric.create N.Fabric.default_config in
  ignore (fetch_many f ~now:1000 ~sizes:[| 4096 |]);
  (* Re-entering at the same now is fine (retries re-issue "now"). *)
  ignore (fetch_many f ~now:1000 ~sizes:[| 4096 |]);
  (try
     ignore (N.Fabric.fetch_many_attempt f ~scale:unit_scale ~now:999 ~sizes:[| 4096 |]);
     Alcotest.fail "inbound clock moved backwards undetected"
   with Invalid_argument _ -> ());
  N.Fabric.writeback_many f ~now:2000 ~count:1 ~bytes:4096;
  (try
     N.Fabric.writeback_many f ~now:1999 ~count:1 ~bytes:4096;
     Alcotest.fail "outbound clock moved backwards undetected"
   with Invalid_argument _ -> ());
  (* The directions guard independently: the outbound clock at 2000
     does not hold the inbound one back. *)
  ignore (fetch_many f ~now:1000 ~sizes:[| 64 |])

let test_fabric_fault_schedule_deterministic () =
  let run seed =
    let f = fault_fabric ~rate:0.5 ~seed all_kinds in
    List.init 32 (fun i ->
        match N.Fabric.fetch_attempt f ~scale:unit_scale ~now:(i * 100_000) ~bytes:4096 with
        | Ok tr -> (true, tr.N.Fabric.t_complete, tr.N.Fabric.t_fault)
        | Error fl -> (false, fl.N.Fabric.f_fail, None))
  in
  check Alcotest.bool "same seed, same schedule" true (run 3 = run 3);
  check Alcotest.bool "different seed, different schedule" true
    (run 3 <> run 4)

let test_fabric_set_fault_rate () =
  let f = fault_fabric [ N.Fabric.Transient ] in
  (match N.Fabric.fetch_attempt f ~scale:unit_scale ~now:0 ~bytes:64 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "rate 1 must fault");
  N.Fabric.set_fault_rate f 0.0;
  (match N.Fabric.fetch_attempt f ~scale:unit_scale ~now:1_000_000 ~bytes:64 with
   | Ok tr ->
     check Alcotest.bool "rate 0 is clean" true (tr.N.Fabric.t_fault = None)
   | Error _ -> Alcotest.fail "rate 0 cannot fail");
  (try
     N.Fabric.set_fault_rate f 1.5;
     Alcotest.fail "rate outside [0,1] accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (N.Fabric.create
         { N.Fabric.default_config with
           faults = { N.Fabric.no_faults with fault_rate = -0.1 } });
    Alcotest.fail "negative rate accepted at create"
  with Invalid_argument _ -> ()

(* ---------- Fault injection (runtime) ---------- *)

let fault_rt ?(rate = 1.0) ?(kinds = all_kinds) ?(prefetch = R.Runtime.Pf_none)
    ?(local = 8192) ?(remot = 4096) ?(infos = 1) () =
  R.Runtime.create
    { R.Runtime.default_config with
      policy = R.Policy.All_remotable; k = 0.0;
      local_bytes = local; remotable_bytes = remot;
      prefetch_mode = prefetch;
      fabric_config =
        { R.Runtime.default_config.fabric_config with
          N.Fabric.faults =
            { N.Fabric.fault_rate = rate; fault_seed = 11;
              fault_kinds = kinds } } }
    (Array.init infos (fun sid -> R.Static_info.default ~sid))

let check_exact rt =
  check Alcotest.int "ledger exact"
    (R.Runtime.now rt - Cards_obs.Profile.compute (R.Runtime.profile rt))
    (Cards_obs.Attribution.total (R.Runtime.attribution rt))

let retry_cycles rt =
  List.fold_left
    (fun acc (c, v) ->
      if c = Cards_obs.Attribution.Retry then acc + v else acc)
    0
    (Cards_obs.Attribution.cause_totals (R.Runtime.attribution rt))

let test_rt_retries_then_escalates () =
  (* Every attempt NACKs: a demand fetch must burn retry_max retries,
     escalate to the reliable channel, and still deliver the data. *)
  let rt = fault_rt ~kinds:[ N.Fabric.Transient ] () in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  R.Runtime.guard rt ~write:true a;
  R.Runtime.write_i64 rt a 31337;
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  let _ = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  (* a is evicted; this guard is the faulted demand fetch. *)
  R.Runtime.guard rt ~write:false a;
  check Alcotest.int "data survives the escalated fetch" 31337
    (R.Runtime.read_i64 rt a);
  let s = R.Runtime.stats rt in
  let rmax = R.Runtime.default_config.retry_max in
  check Alcotest.int "retry_max retries" rmax (R.Rt_stats.retries s);
  check Alcotest.int "one escalation" 1 (R.Rt_stats.escalations s);
  let fs = R.Runtime.fabric_stats rt in
  check Alcotest.int "all attempts NACKed" (rmax + 1) fs.failed_fetches;
  check Alcotest.int "one reliable fetch" 1 fs.reliable_fetches;
  check Alcotest.bool "retry stall charged" true (retry_cycles rt > 0);
  check_exact rt

let test_rt_timeout_refetches_late () =
  (* Late-only faults: completions whose congestion delay blows the
     fetch budget are abandoned and re-issued; nothing escalates
     (late data always arrives eventually). *)
  let rt = fault_rt ~kinds:[ N.Fabric.Late ] () in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  let b = R.Runtime.ds_alloc rt ~handle:h ~size:4096 in
  R.Runtime.guard rt ~write:true a;
  R.Runtime.write_i64 rt a 42;
  (* Ping-pong between two objects in a one-object cache: every guard
     is a fresh faulted demand fetch. *)
  for _ = 1 to 12 do
    R.Runtime.guard rt ~write:false b;
    R.Runtime.guard rt ~write:false a
  done;
  check Alcotest.int "data survives timed-out fetches" 42
    (R.Runtime.read_i64 rt a);
  let s = R.Runtime.stats rt in
  check Alcotest.bool "timeouts fired" true (R.Rt_stats.timeouts s >= 1);
  check Alcotest.bool "each timeout is a retry" true
    (R.Rt_stats.retries s >= R.Rt_stats.timeouts s);
  check Alcotest.int "late never escalates" 0 (R.Rt_stats.escalations s);
  check Alcotest.bool "retry stall charged" true (retry_cycles rt > 0);
  check_exact rt

let test_rt_degrades_and_recovers () =
  (* A half-broken fabric must narrow the prefetch window; dropping the
     fault rate back to zero must re-widen it. *)
  let infos =
    [| { (R.Static_info.default ~sid:0) with
         prefetch = R.Static_info.Stride } |]
  in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 18; remotable_bytes = 1 lsl 17;
        prefetch_mode = R.Runtime.Pf_per_class;
        fabric_config =
          { R.Runtime.default_config.fabric_config with
            N.Fabric.faults =
              { N.Fabric.fault_rate = 0.5; fault_seed = 11;
                fault_kinds = all_kinds } } }
      infos
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 21) in
  let sweep () =
    for i = 0 to 511 do
      R.Runtime.guard rt ~write:false (a + (i * 4096));
      ignore (R.Runtime.read_i64 rt (a + (i * 4096)))
    done
  in
  sweep ();
  let s = R.Runtime.stats rt in
  let degraded = R.Runtime.degrade_level rt in
  check Alcotest.bool "degraded under 50% faults" true (degraded > 0);
  check Alcotest.bool "degrade steps counted" true
    (R.Rt_stats.degrade_steps s >= 1);
  (* Fabric heals: the observed-fault window drains and the prefetch
     width steps back up. *)
  R.Runtime.set_fault_rate rt 0.0;
  sweep ();
  sweep ();
  check Alcotest.bool "recovered at least one step" true
    (R.Runtime.degrade_level rt < degraded);
  check Alcotest.bool "recovery counted" true
    (R.Rt_stats.recover_steps s >= 1);
  check_exact rt

let test_rt_prefetch_fault_not_retried () =
  (* Speculative fetches are dropped on a NACK, not retried: with
     transient-only faults at rate 1 and prefetching on, pf failures
     are counted but no retry/escalation machinery engages for them
     beyond the demand path's own. *)
  let infos =
    [| { (R.Static_info.default ~sid:0) with
         prefetch = R.Static_info.Stride } |]
  in
  let rt =
    R.Runtime.create
      { R.Runtime.default_config with
        policy = R.Policy.All_remotable; k = 0.0;
        local_bytes = 1 lsl 18; remotable_bytes = 1 lsl 17;
        prefetch_mode = R.Runtime.Pf_per_class;
        fabric_config =
          { R.Runtime.default_config.fabric_config with
            N.Fabric.faults =
              { N.Fabric.fault_rate = 1.0; fault_seed = 11;
                fault_kinds = [ N.Fabric.Transient ] } } }
      infos
  in
  let h = R.Runtime.ds_init rt ~sid:0 in
  let a = R.Runtime.ds_alloc rt ~handle:h ~size:(1 lsl 19) in
  for i = 0 to 127 do
    R.Runtime.guard rt ~write:false (a + (i * 4096))
  done;
  let s = R.Runtime.stats rt in
  check Alcotest.bool "prefetch failures counted" true
    (R.Rt_stats.pf_failed s >= 1);
  check_exact rt

(* ---------- Policy threshold edges ---------- *)

let test_policy_k_clamped () =
  let infos = infos_n 6 in
  check Alcotest.int "k < 0 clamps to none" 0
    (count_true (R.Policy.pinned_preference R.Policy.Linear ~infos ~k:(-0.5)));
  check Alcotest.int "k > 1 clamps to all" 6
    (count_true (R.Policy.pinned_preference R.Policy.Linear ~infos ~k:1.5));
  check Alcotest.int "k = 0 pins none" 0
    (count_true (R.Policy.pinned_preference R.Policy.Max_use ~infos ~k:0.0))

let test_policy_quota_thresholds () =
  (* ceil quota: any nonzero k pins at least one structure, and the
     quota steps exactly at the 1/n boundaries. *)
  let infos = infos_n 10 in
  let quota k =
    count_true (R.Policy.pinned_preference R.Policy.Linear ~infos ~k)
  in
  check Alcotest.int "k=0.01 pins one" 1 (quota 0.01);
  check Alcotest.int "k=0.10 pins one" 1 (quota 0.10);
  check Alcotest.int "k=0.11 pins two" 2 (quota 0.11);
  check Alcotest.int "k=0.99 pins all" 10 (quota 0.99)

let test_policy_score_ties_program_order () =
  (* Equal scores: program order (ascending sid) breaks the tie, so
     the pinned set is stable run to run. *)
  let infos =
    Array.init 4 (fun sid ->
        { (R.Static_info.default ~sid) with score_use = 5; score_reach = 5 })
  in
  let p = R.Policy.pinned_preference R.Policy.Max_use ~infos ~k:0.5 in
  check Alcotest.bool "lowest sids win ties" true
    (p.(0) && p.(1) && (not p.(2)) && not p.(3));
  let q = R.Policy.pinned_preference R.Policy.Max_reach ~infos ~k:0.5 in
  check Alcotest.bool "same for max-reach" true
    (q.(0) && q.(1) && (not q.(2)) && not q.(3))

(* ---------- Prefetcher edges ---------- *)

let test_prefetcher_degenerate_structures () =
  (* A single repeatedly-touched object (delta 0) must never trigger a
     stride lock, and an empty scan (a leaf / empty structure) must
     never make the greedy or jump prefetchers emit. *)
  let st = R.Prefetcher.stride ~depth:4 in
  for _ = 1 to 10 do
    check (Alcotest.list Alcotest.int) "repeated object: silent" []
      (objs_of st ~obj:5 ~missed:true)
  done;
  check Alcotest.int "calls observed" 10 (R.Prefetcher.calls st);
  check Alcotest.int "nothing emitted" 0 (R.Prefetcher.targets_emitted st);
  let g = R.Prefetcher.greedy ~fanout:4 in
  check (Alcotest.list Alcotest.int) "greedy on empty scan: silent" []
    (objs_of g ~obj:0 ~missed:true);
  let j = R.Prefetcher.jump ~jump:4 ~depth:2 in
  check (Alcotest.list Alcotest.int) "jump first touch: silent" []
    (objs_of j ~obj:0 ~missed:true)

let test_stride_reversal_mid_run () =
  (* Ascend long enough to lock stride +1, then walk back down: the
     majority vote must flip the direction, predictions must follow the
     new direction, and no target may ever go negative. *)
  let p = R.Prefetcher.stride ~depth:3 in
  for o = 0 to 9 do
    ignore (call p ~obj:o ~missed:false)
  done;
  let saw_down = ref false and saw_neg = ref false in
  for o = 9 downto 0 do
    let out = objs_of p ~obj:o ~missed:false in
    if List.exists (fun t -> t < o) out then saw_down := true;
    if List.exists (fun t -> t < 0) out then saw_neg := true
  done;
  check Alcotest.bool "reversal predicts downward" true !saw_down;
  check Alcotest.bool "no negative targets" false !saw_neg

let test_stride_frontier_snapback () =
  (* Run the frontier far ahead on a first pass, then seek back to the
     start: without the snap-back the stranded frontier would suppress
     every prefetch on the re-traversal. *)
  let p = R.Prefetcher.stride ~depth:3 in
  for o = 0 to 99 do
    ignore (call p ~obj:o ~missed:false)
  done;
  let second = ref [] in
  for o = 0 to 9 do
    second := !second @ objs_of p ~obj:o ~missed:false
  done;
  check Alcotest.bool "re-traversal prefetches again" true
    (List.mem 3 !second && List.mem 5 !second)

let test_stride_hysteresis () =
  (* One window top-up per ~depth accesses: after an emission, accesses
     still inside the issued window stay silent until the frontier
     comes within depth of the access point. *)
  let p = R.Prefetcher.stride ~depth:4 in
  let at o = objs_of p ~obj:o ~missed:false in
  for o = 0 to 3 do ignore (at o) done;
  (* The lock engages at obj 4 and emits the initial window. *)
  check Alcotest.bool "window issued at lock" true (at 4 <> []);
  check (Alcotest.list Alcotest.int) "inside the window: silent" [] (at 5);
  check (Alcotest.list Alcotest.int) "still silent" [] (at 6);
  check (Alcotest.list Alcotest.int) "still silent" [] (at 7);
  check (Alcotest.list Alcotest.int) "still silent" [] (at 8);
  let topup = at 9 in
  check Alcotest.bool "tops up as the frontier nears" true (topup <> []);
  check Alcotest.bool "top-up is fresh objects only" true
    (List.for_all (fun t -> t >= 13) topup)

let suite =
  [ ("addr basics", `Quick, test_addr_basics);
    ("addr ranges", `Quick, test_addr_ranges);
    ("cost table 1", `Quick, test_cost_table1);
    ("fabric 59K calibration", `Quick, test_fabric_59k);
    ("fabric 46K calibration", `Quick, test_fabric_trackfm_46k);
    ("fabric queueing", `Quick, test_fabric_queueing);
    ("fabric writeback", `Quick, test_fabric_writeback_nonblocking);
    ("fabric bandwidth term", `Quick, test_fabric_bandwidth_term);
    ("fabric fetch_many amortizes", `Quick, test_fabric_fetch_many_amortizes);
    ("fabric qp dispatch", `Quick, test_fabric_qp_dispatch);
    ("fabric writeback charges proto", `Quick, test_fabric_writeback_charges_proto);
    ("fabric writeback_many coalesces", `Quick, test_fabric_writeback_many_coalesces);
    ("policy linear", `Quick, test_policy_linear);
    ("policy all-*", `Quick, test_policy_all);
    ("policy max-use", `Quick, test_policy_max_use);
    ("policy max-reach", `Quick, test_policy_max_reach);
    ("policy random deterministic", `Quick, test_policy_random_deterministic);
    ("policy explicit", `Quick, test_policy_explicit);
    ("stride prefetcher locks", `Quick, test_stride_prefetcher_locks);
    ("stride majority vote", `Quick, test_stride_prefetcher_majority);
    ("stride quiet on noise", `Quick, test_stride_prefetcher_random_stays_quiet);
    ("greedy scans on miss", `Quick, test_greedy_scans_on_miss);
    ("jump learns", `Quick, test_jump_learns_second_traversal);
    ("prefetcher of_class", `Quick, test_of_class);
    ("rt pinned untagged", `Quick, test_rt_pinned_alloc_untagged);
    ("rt remotable tagged", `Quick, test_rt_remotable_alloc_tagged);
    ("rt data roundtrip", `Quick, test_rt_data_roundtrip);
    ("rt unmanaged roundtrip", `Quick, test_rt_unmanaged_roundtrip);
    ("rt guard costs", `Quick, test_rt_guard_costs);
    ("rt remote fault cost", `Quick, test_rt_remote_fault_cost);
    ("rt pinned override", `Quick, test_rt_pinned_override_demotes);
    ("rt loop check", `Quick, test_rt_loop_check);
    ("rt clean fault fallback", `Quick, test_rt_clean_fault_fallback);
    ("rt dirty eviction", `Quick, test_rt_dirty_eviction_writes_back);
    ("rt prefetch hides latency", `Quick, test_rt_prefetch_hides_latency);
    ("rt prefetch stats", `Quick, test_rt_prefetch_stats);
    ( "rt prefetch bytes matches depth",
      `Quick,
      test_rt_prefetch_bytes_matches_depth );
    ( "rt prefetch bytes smaller objects deeper",
      `Quick,
      test_rt_prefetch_bytes_smaller_objects_deeper );
    ( "rt prefetch bytes accounting exact",
      `Quick,
      test_rt_prefetch_bytes_accounting_exact );
    ("rt cross-structure frontier prefetch", `Quick,
     test_rt_cross_structure_prefetch_at_frontier);
    ("rt over-budget counted", `Quick, test_rt_over_budget_counted);
    ("rt batching reduces cycles", `Quick, test_rt_batching_reduces_cycles);
    ("rt wild pointer", `Quick, test_rt_wild_pointer_rejected);
    ("rt speculative guard benign", `Quick, test_rt_speculative_guard_benign);
    ("rt report", `Quick, test_rt_report);
    ("adaptive drops useless prefetcher", `Quick, test_adaptive_drops_useless_prefetcher);
    ("adaptive keeps good prefetcher", `Quick, test_adaptive_keeps_good_prefetcher);
    ("adaptive walks every candidate", `Quick, test_adaptive_walks_every_candidate);
    ("rt config validation", `Quick, test_rt_config_validation);
    ("fabric fault transient", `Quick, test_fabric_fault_transient);
    ("fabric fault late", `Quick, test_fabric_fault_late);
    ("fabric fault duplicate", `Quick, test_fabric_fault_duplicate);
    ("fabric attempt rate-0 identity", `Quick, test_fabric_attempt_rate0_identity);
    ("fabric reliable channel", `Quick, test_fabric_reliable_never_faults);
    ("fabric wb fault absorbed", `Quick, test_fabric_wb_fault_absorbed);
    ("fabric backwards now rejected", `Quick, test_fabric_now_backwards_rejected);
    ("fabric fault schedule deterministic", `Quick,
     test_fabric_fault_schedule_deterministic);
    ("fabric set_fault_rate", `Quick, test_fabric_set_fault_rate);
    ("rt retries then escalates", `Quick, test_rt_retries_then_escalates);
    ("rt timeout refetches late", `Quick, test_rt_timeout_refetches_late);
    ("rt degrades and recovers", `Quick, test_rt_degrades_and_recovers);
    ("rt prefetch fault not retried", `Quick, test_rt_prefetch_fault_not_retried);
    ("policy k clamped", `Quick, test_policy_k_clamped);
    ("policy quota thresholds", `Quick, test_policy_quota_thresholds);
    ("policy score ties", `Quick, test_policy_score_ties_program_order);
    ("prefetcher degenerate structures", `Quick,
     test_prefetcher_degenerate_structures);
    ("stride reversal mid-run", `Quick, test_stride_reversal_mid_run);
    ("stride frontier snap-back", `Quick, test_stride_frontier_snapback);
    ("stride hysteresis", `Quick, test_stride_hysteresis);
    ("jump window farthest first", `Quick, test_jump_window_farthest_first);
    qcheck prop_targets_sort_uniq;
    qcheck prop_fabric_completion_monotone;
    qcheck prop_addr_roundtrip;
    qcheck prop_addr_arith_stays_in_ds;
    qcheck prop_policy_quota ]
