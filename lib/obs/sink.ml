type t = {
  metrics : Metrics.t option;
  spans : Span.collector option;
  recorder : Recorder.t option;
  reporter : Reporter.t;
  sampling : bool;
  mutable pm_armed : bool;
}

let null =
  { metrics = None;
    spans = None;
    recorder = None;
    reporter = Reporter.null;
    sampling = false;
    pm_armed = false }

let create ?metrics_interval ?span_rate ?(postmortem = false)
    ?(reporter = Reporter.null) () =
  let metrics =
    Option.map (fun interval -> Metrics.create ~interval ()) metrics_interval
  in
  (* The recorder implies spans: it is fed by the collector's listener.
     [--postmortem] without an explicit rate records everything. *)
  let spans =
    if span_rate <> None || postmortem then
      Some (Span.create ?rate:span_rate ())
    else None
  in
  let recorder = if postmortem then Some (Recorder.create ()) else None in
  (match (spans, recorder) with
  | Some c, Some r -> Span.set_listener c (Recorder.add r)
  | _ -> ());
  { metrics;
    spans;
    recorder;
    reporter;
    sampling = metrics <> None;
    pm_armed = postmortem }

let sampling t = t.sampling

let metrics_due t ~now =
  match t.metrics with
  | Some m -> Metrics.due m ~now
  | None -> false

let metrics t = t.metrics

let spans t = t.spans

let recorder t = t.recorder

let reporter t = t.reporter

let take_postmortem t =
  t.pm_armed
  &&
  (t.pm_armed <- false;
   true)
