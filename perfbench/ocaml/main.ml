(* The repository benchmark.  perfbench/run.py builds and runs it:

     main.exe --workload chase|analytics|serve --seed N --seconds S
              --trace 0|1 [--nproc N] [--rev REV] [--out DIR]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   takes the per-layer trace (and writes its spans to DIR).
   The last line of stdout is the JSON result. *)

module J = Cards_util.Json
open Measure

let chase_nodes = 16_384
let analytics_trips = 50_000
let serve_requests = 250
let serve_sim_requests = 2_000

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) and rev = ref "unknown" in
  let out = ref "." in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "chase | analytics | serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of the timed phase");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer trace");
      ("--nproc", Arg.Set_int nproc, "cores this process may use");
      ("--rev", Arg.Set_string rev, "source revision, for the fingerprint");
      ("--out", Arg.Set_string out, "directory for the traced run's spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 and seed = !seed and seconds = !seconds and nproc = !nproc in
  let run () =
    match !workload with
    | "chase" ->
      let p = Programs.chase ~seed ~nodes:chase_nodes in
      if traced then Programs.traced ~anchor:Programs.chase_anchor p
      else Programs.end_to_end ~seconds p
    | "analytics" ->
      let p = Programs.analytics ~seed ~trips:analytics_trips in
      if traced then
        Programs.traced ~anchor:Programs.analytics_anchor
          ~wss:(List.assoc analytics_trips Programs.analytics_wss) p
      else Programs.end_to_end ~seconds p
    | "serve" ->
      if traced then Serving.traced ~nproc ~seed ~requests:serve_requests
      else
        Serving.end_to_end ~seconds ~nproc ~seed ~requests:serve_requests
          ~sim_requests:serve_sim_requests
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let o =
    try run () with
    | Arg.Bad msg ->
      prerr_endline msg;
      exit 2
    | e ->
      { correct = false; attempted = 1; failed = 1; metrics = [];
        problems = [ Printexc.to_string e ] }
  in
  let fingerprint =
    J.Obj
      [ ("workload", J.Str !workload); ("seed", J.Int seed);
        ("seconds", J.Float seconds); ("trace", J.Int !trace);
        ("nproc", J.Int nproc);
        ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
        ("serve_domains", J.Int (Serving.domains ~nproc));
        ("ocaml", J.Str Sys.ocaml_version); ("rev", J.Str !rev) ]
  in
  if traced then begin
    if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
    Tracer.write
      (Filename.concat !out (Printf.sprintf "spans-%s-%d.json" !workload seed))
      ~meta:fingerprint
  end;
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) o.problems;
  print_endline ("fingerprint " ^ J.to_string fingerprint);
  List.iter
    (fun x -> Printf.printf "%-32s %16.6f %s\n" x.name x.value x.unit)
    o.metrics;
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool o.correct); ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ("metrics",
             J.Obj
               (List.map
                  (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit) ]))
                  o.metrics)) ]));
  exit (if o.correct then 0 else 1)
