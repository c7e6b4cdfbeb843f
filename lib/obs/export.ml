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

let metrics_json (m : Metrics.t) =
  let per_kind f =
    Json.Obj (List.map (fun kind -> (Metrics.kind_name kind, Json.Int (f m kind))) Metrics.all_kinds)
  in
  Json.Obj
    [
      ("messages", per_kind Metrics.messages);
      ("message_bytes", per_kind Metrics.message_bytes);
      ("total_messages", Json.Int (Metrics.total_messages m));
      ("local_messages", Json.Int (Metrics.local_messages m));
      ("packets", Json.Int (Metrics.packets m));
      ("packet_bytes", Json.Int (Metrics.packet_bytes m));
      ("flushes", Json.Int (Metrics.flushes m));
      ("steps", Json.Int (Metrics.steps m));
      ("edges_scanned", Json.Int (Metrics.edges_scanned m));
      ("spawned", Json.Int (Metrics.spawned m));
      ("memo_ops", Json.Int (Metrics.memo_ops m));
      ("supersteps", Json.Int (Metrics.supersteps m));
      ("tracker_updates", Json.Int (Metrics.tracker_updates m));
      ("busy_ns", Json.Int (Metrics.busy_ns m));
      ("fault_drops", Json.Int (Metrics.fault_drops m));
      ("fault_dups", Json.Int (Metrics.fault_dups m));
      ("fault_delays", Json.Int (Metrics.fault_delays m));
      ("retransmits", Json.Int (Metrics.retransmits m));
      ("dup_dropped", Json.Int (Metrics.dup_dropped m));
      ("acks", Json.Int (Metrics.acks m));
      ("abandoned", Json.Int (Metrics.abandoned m));
      ("migrations", Json.Int (Metrics.migrations m));
      ("migrated_entries", Json.Int (Metrics.migrated_entries m));
      ("forwarded", Json.Int (Metrics.forwarded m));
      ("stashed", Json.Int (Metrics.stashed m));
      ("batches", Json.Int (Metrics.batches m));
      ("batched_traversers", Json.Int (Metrics.batched_traversers m));
      ("coalesced_msgs", Json.Int (Metrics.coalesced_msgs m));
      ("batch_sizes", histogram_json (Metrics.batch_sizes m));
      ("plan_hits", Json.Int (Metrics.plan_hits m));
      ("plan_misses", Json.Int (Metrics.plan_misses m));
      ("plan_verifications", Json.Int (Metrics.plan_verifications m));
      ("trace_dropped", Json.Int (Metrics.trace_dropped m));
    ]

let summary_json (s : Stats.summary) =
  Json.Obj
    [
      ("count", Json.Int s.Stats.count);
      ("mean", Json.Float s.Stats.mean);
      ("stddev", Json.Float s.Stats.stddev);
      ("min", Json.Float s.Stats.min);
      ("max", Json.Float s.Stats.max);
      ("p50", Json.Float s.Stats.p50);
      ("p90", Json.Float s.Stats.p90);
      ("p99", Json.Float s.Stats.p99);
    ]
