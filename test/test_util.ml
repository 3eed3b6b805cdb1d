(* Unit + property tests for cards_util. *)

module U = Cards_util

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = U.Rng.create 42 and b = U.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (U.Rng.int64 a) (U.Rng.int64 b)
  done

let test_rng_split_decorrelates () =
  let a = U.Rng.create 42 in
  let b = U.Rng.split a in
  let xa = U.Rng.int64 a and xb = U.Rng.int64 b in
  check Alcotest.bool "split streams differ" true (xa <> xb)

let test_rng_copy () =
  let a = U.Rng.create 7 in
  ignore (U.Rng.int64 a);
  let b = U.Rng.copy a in
  check Alcotest.int64 "copy continues identically" (U.Rng.int64 a) (U.Rng.int64 b)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = U.Rng.create seed in
      let x = U.Rng.int r bound in
      x >= 0 && x < bound)

let test_rng_int_bad_bound () =
  let r = U.Rng.create 1 in
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (U.Rng.int r 0))

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in bounds" ~count:500
    QCheck.small_int
    (fun seed ->
      let r = U.Rng.create seed in
      let x = U.Rng.float r 3.5 in
      x >= 0.0 && x < 3.5)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"Rng.shuffle permutes" ~count:200
    QCheck.(pair small_int (int_range 0 50))
    (fun (seed, n) ->
      let r = U.Rng.create seed in
      let a = Array.init n (fun i -> i) in
      U.Rng.shuffle r a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_zipf_bounds =
  QCheck.Test.make ~name:"Rng.zipf stays in bounds" ~count:300
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let r = U.Rng.create seed in
      let x = U.Rng.zipf r ~n ~s:1.1 in
      x >= 0 && x < n)

let test_zipf_is_skewed () =
  let r = U.Rng.create 99 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let z = U.Rng.zipf r ~n:100 ~s:1.2 in
    counts.(z) <- counts.(z) + 1
  done;
  check Alcotest.bool "rank 0 beats rank 50" true (counts.(0) > counts.(50))

let test_exponential_positive () =
  let r = U.Rng.create 5 in
  for _ = 1 to 100 do
    check Alcotest.bool "exponential >= 0" true (U.Rng.exponential r ~mean:10.0 >= 0.0)
  done

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let s = U.Stats.create () in
  List.iter (U.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check (Alcotest.float 1e-9) "mean" 2.5 (U.Stats.mean s);
  check (Alcotest.float 1e-9) "sum" 10.0 (U.Stats.sum s);
  check Alcotest.int "count" 4 (U.Stats.count s);
  check (Alcotest.float 1e-9) "min" 1.0 (U.Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (U.Stats.max s)

let test_stats_empty () =
  let s = U.Stats.create () in
  check (Alcotest.float 1e-9) "mean of empty" 0.0 (U.Stats.mean s);
  check (Alcotest.float 1e-9) "median of empty" 0.0 (U.Stats.median s)

(* The histogram's contract: percentiles within one sub-bucket
   (1/32 ≈ 3.2% relative) of the exact nearest-rank answer for
   observations >= 1; p100 exactly max (clamped). *)
let hist_tol = 1.0 /. 32.0

let check_approx name expected got =
  let err = Float.abs (got -. expected) /. Float.max expected 1.0 in
  if err > hist_tol then
    Alcotest.failf "%s: expected ~%g, got %g (err %.4f > %.4f)" name expected
      got err hist_tol

let test_stats_median () =
  let s = U.Stats.create () in
  List.iter (U.Stats.add s) [ 5.0; 1.0; 3.0 ];
  check_approx "odd median" 3.0 (U.Stats.median s);
  U.Stats.add s 100.0;
  (* nearest-rank median of 4 = 2nd smallest *)
  check_approx "even median (nearest-rank)" 3.0 (U.Stats.median s)

let test_stats_percentile () =
  let s = U.Stats.create () in
  for i = 1 to 100 do
    U.Stats.add s (float_of_int i)
  done;
  check_approx "p50" 50.0 (U.Stats.percentile s 50.0);
  check_approx "p99" 99.0 (U.Stats.percentile s 99.0);
  (* clamped to the exact max *)
  check (Alcotest.float 1e-9) "p100" 100.0 (U.Stats.percentile s 100.0)

(* Naive nearest-rank reference over the retained sorted sample. *)
let naive_percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let r = Stdlib.max 1 (Stdlib.min n r) in
  a.(r - 1)

let prop_stats_percentile_matches_naive =
  QCheck.Test.make
    ~name:"histogram percentile within 1 sub-bucket of naive sort" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (float_range 1.0 1_000_000.0))
        (float_range 0.0 100.0))
    (fun (xs, p) ->
      let s = U.Stats.create () in
      List.iter (U.Stats.add s) xs;
      let exact = naive_percentile xs p in
      let approx = U.Stats.percentile s p in
      Float.abs (approx -. exact) /. Float.max exact 1.0 <= hist_tol)

let prop_stats_merge_matches_combined =
  QCheck.Test.make ~name:"merge = adding both streams to one" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 100) (float_range 1.0 100_000.0))
        (list_of_size Gen.(int_range 0 100) (float_range 1.0 100_000.0)))
    (fun (xs, ys) ->
      let a = U.Stats.create () and b = U.Stats.create () in
      List.iter (U.Stats.add a) xs;
      List.iter (U.Stats.add b) ys;
      let m = U.Stats.merge a b in
      let c = U.Stats.create () in
      List.iter (U.Stats.add c) (xs @ ys);
      U.Stats.count m = U.Stats.count c
      && Float.abs (U.Stats.mean m -. U.Stats.mean c) < 1e-6
      && Float.abs (U.Stats.variance m -. U.Stats.variance c)
         < 1e-6 *. (1.0 +. U.Stats.variance c)
      && U.Stats.min m = U.Stats.min c
      && U.Stats.max m = U.Stats.max c
      && (U.Stats.count m = 0
          || U.Stats.percentile m 90.0 = U.Stats.percentile c 90.0))

let prop_stats_variance_matches_naive =
  QCheck.Test.make ~name:"Welford variance = naive variance" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let s = U.Stats.create () in
      List.iter (U.Stats.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. n
      in
      Float.abs (U.Stats.variance s -. var) < 1e-6 *. (1.0 +. var))

let test_stats_merge () =
  let a = U.Stats.create () and b = U.Stats.create () in
  List.iter (U.Stats.add a) [ 1.0; 2.0 ];
  List.iter (U.Stats.add b) [ 3.0; 4.0 ];
  let m = U.Stats.merge a b in
  check Alcotest.int "merged count" 4 (U.Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (U.Stats.mean m)

(* The percentile contract at its edges: empty histograms answer 0.0
   (not NaN, not a scan off the end of the bucket array), p = 0 and
   p = 100 are the *exact* extremes rather than bucket midpoints, and
   out-of-range or NaN p is a caller bug rejected loudly. *)
let test_stats_percentile_edges () =
  let s = U.Stats.create () in
  check (Alcotest.float 1e-9) "empty p0" 0.0 (U.Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "empty p50" 0.0 (U.Stats.percentile s 50.0);
  check (Alcotest.float 1e-9) "empty p100" 0.0 (U.Stats.percentile s 100.0);
  List.iter (U.Stats.add s) [ 7.25; 3.5; 19.0 ];
  check (Alcotest.float 1e-9) "p0 = exact min" 3.5 (U.Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100 = exact max" 19.0
    (U.Stats.percentile s 100.0);
  let rejects p =
    match U.Stats.percentile s p with
    | _ -> Alcotest.failf "percentile %g should raise Invalid_argument" p
    | exception Invalid_argument _ -> ()
  in
  rejects (-1.0);
  rejects 100.5;
  rejects Float.nan

(* With exactly one sample, min = max = the sample, so the clamp makes
   every percentile exact — no sub-bucket error at all. *)
let prop_stats_single_sample =
  QCheck.Test.make ~name:"single-sample percentile is that sample exactly"
    ~count:200
    QCheck.(pair (float_range 1.0 1e9) (float_range 0.0 100.0))
    (fun (x, p) ->
      let s = U.Stats.create () in
      U.Stats.add s x;
      U.Stats.percentile s p = x)

let prop_stats_merge_empty_side =
  QCheck.Test.make
    ~name:"merge with an empty side copies the other (and shares no state)"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (float_range 1.0 1e6))
    (fun xs ->
      let a = U.Stats.create () and e = U.Stats.create () in
      List.iter (U.Stats.add a) xs;
      let m1 = U.Stats.merge a e and m2 = U.Stats.merge e a in
      let same m =
        U.Stats.count m = U.Stats.count a
        && U.Stats.sum m = U.Stats.sum a
        && U.Stats.mean m = U.Stats.mean a
        && U.Stats.min m = U.Stats.min a
        && U.Stats.max m = U.Stats.max a
        && (U.Stats.count a = 0 || U.Stats.median m = U.Stats.median a)
      in
      let ok = same m1 && same m2 in
      (* The copy must be deep: growing the merge result cannot bleed
         back into the source's histogram. *)
      U.Stats.add m1 42.0;
      ok && U.Stats.count a = List.length xs
      && (xs = [] || U.Stats.median a = U.Stats.median m2))

(* ---------- Bitset ---------- *)

let prop_bitset_model =
  let module IS = Set.Make (Int) in
  QCheck.Test.make ~name:"bitset agrees with Set model" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (pair bool (int_range 0 99)))
    (fun ops ->
      let bs = U.Bitset.create 100 in
      let model = ref IS.empty in
      List.iter
        (fun (add, i) ->
          if add then begin
            U.Bitset.add bs i;
            model := IS.add i !model
          end
          else begin
            U.Bitset.remove bs i;
            model := IS.remove i !model
          end)
        ops;
      IS.elements !model = U.Bitset.to_list bs
      && IS.cardinal !model = U.Bitset.cardinal bs)

let test_bitset_ops () =
  let a = U.Bitset.create 16 and b = U.Bitset.create 16 in
  U.Bitset.add a 1;
  U.Bitset.add a 2;
  U.Bitset.add b 2;
  U.Bitset.add b 3;
  let a' = U.Bitset.copy a in
  check Alcotest.bool "union changes" true (U.Bitset.union_into a' b);
  check (Alcotest.list Alcotest.int) "union" [ 1; 2; 3 ] (U.Bitset.to_list a');
  let a'' = U.Bitset.copy a in
  check Alcotest.bool "inter changes" true (U.Bitset.inter_into a'' b);
  check (Alcotest.list Alcotest.int) "inter" [ 2 ] (U.Bitset.to_list a'');
  let a3 = U.Bitset.copy a in
  U.Bitset.diff_into a3 b;
  check (Alcotest.list Alcotest.int) "diff" [ 1 ] (U.Bitset.to_list a3)

let test_bitset_set_all () =
  let b = U.Bitset.create 13 in
  U.Bitset.set_all b;
  check Alcotest.int "cardinal = capacity" 13 (U.Bitset.cardinal b);
  check Alcotest.bool "out-of-universe absent" false (U.Bitset.mem b 13);
  U.Bitset.clear b;
  check Alcotest.int "cleared" 0 (U.Bitset.cardinal b)

(* ---------- Vec ---------- *)

let test_vec_basic () =
  let v = U.Vec.create () in
  check Alcotest.int "push returns index" 0 (U.Vec.push v 10);
  check Alcotest.int "second index" 1 (U.Vec.push v 20);
  check Alcotest.int "get" 20 (U.Vec.get v 1);
  U.Vec.set v 0 99;
  check (Alcotest.list Alcotest.int) "to_list" [ 99; 20 ] (U.Vec.to_list v);
  U.Vec.ensure v 5 0;
  check Alcotest.int "ensure grows" 5 (U.Vec.length v)

let test_vec_bounds () =
  let v = U.Vec.create () in
  ignore (U.Vec.push v 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Vec: index 1 out of range (len 1)") (fun () ->
      ignore (U.Vec.get v 1))

(* ---------- Table ---------- *)

let test_table_render () =
  let t = U.Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  U.Table.add_row t [ "1"; "2" ];
  U.Table.add_row t [ "333" ];
  let s = U.Table.render t in
  check Alcotest.bool "has title" true (String.length s > 0 && s.[0] = 'T');
  check Alcotest.bool "contains padded row" true
    (String.length s > 0
     &&
     let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "333") (List.map String.trim lines))

let test_table_formats () =
  check Alcotest.string "cycles small" "123" (U.Table.fmt_cycles 123.0);
  check Alcotest.string "cycles K" "56.7K" (U.Table.fmt_cycles 56_700.0);
  check Alcotest.string "cycles M" "2.30M" (U.Table.fmt_cycles 2_300_000.0);
  check Alcotest.string "cycles G" "1.23G" (U.Table.fmt_cycles 1.23e9);
  check Alcotest.string "speedup" "1.85x" (U.Table.fmt_speedup 1.85);
  check Alcotest.string "bytes" "4.0KB" (U.Table.fmt_bytes 4096.0);
  check Alcotest.string "bytes GB" "2.0GB" (U.Table.fmt_bytes (2.0 *. 1024.0 ** 3.0))

let suite =
  [ ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng split", `Quick, test_rng_split_decorrelates);
    ("rng copy", `Quick, test_rng_copy);
    ("rng bad bound", `Quick, test_rng_int_bad_bound);
    ("zipf skew", `Quick, test_zipf_is_skewed);
    ("exponential positive", `Quick, test_exponential_positive);
    ("stats basic", `Quick, test_stats_basic);
    ("stats empty", `Quick, test_stats_empty);
    ("stats median", `Quick, test_stats_median);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats merge", `Quick, test_stats_merge);
    ("stats percentile edges", `Quick, test_stats_percentile_edges);
    ("bitset ops", `Quick, test_bitset_ops);
    ("bitset set_all", `Quick, test_bitset_set_all);
    ("vec basic", `Quick, test_vec_basic);
    ("vec bounds", `Quick, test_vec_bounds);
    ("table render", `Quick, test_table_render);
    ("table formats", `Quick, test_table_formats);
    qcheck prop_rng_int_bounds;
    qcheck prop_rng_float_bounds;
    qcheck prop_shuffle_is_permutation;
    qcheck prop_zipf_bounds;
    qcheck prop_stats_variance_matches_naive;
    qcheck prop_stats_merge_matches_combined;
    qcheck prop_stats_single_sample;
    qcheck prop_stats_merge_empty_side;
    qcheck prop_stats_percentile_matches_naive;
    qcheck prop_bitset_model ]
