(* Structured metrics sink: JSON views of the simulator counters and the
   shared latency histogram, shared by the bench harness, the CLI, and
   the engine report exporter. All field orders are fixed so the output
   is byte-stable across runs. *)

let opt_float = function None -> Json.Null | Some x -> Json.Float x

let histogram_json (h : Histogram.t) =
  let p50, p95, p99 = Histogram.quantiles h in
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("mean", Json.Float (Histogram.mean h));
      ("min", opt_float (Histogram.min_seen h));
      ("max", opt_float (Histogram.max_seen h));
      ("p50", Json.Float p50);
      ("p90", Json.Float (Histogram.quantile h 0.90));
      ("p95", Json.Float p95);
      ("p99", Json.Float p99);
    ]

(* Per-kind messages, then every declared counter in declaration order,
   with the batch-size histogram after the batching counters. *)
let metrics_json (m : Metrics.t) =
  let per_kind f =
    Json.Obj (List.map (fun kind -> (Metrics.kind_name kind, Json.Int (f m kind))) Metrics.all_kinds)
  in
  let counter c =
    let field = (Metrics.Counter.key c, Json.Int (Metrics.get m c)) in
    if c == Metrics.Counter.coalesced_msgs then
      [ field; ("batch_sizes", histogram_json (Metrics.batch_sizes m)) ]
    else [ field ]
  in
  Json.Obj
    ([
       ("messages", per_kind Metrics.messages);
       ("message_bytes", per_kind Metrics.message_bytes);
       ("total_messages", Json.Int (Metrics.total_messages m));
     ]
    @ List.concat_map counter Metrics.Counter.all)

