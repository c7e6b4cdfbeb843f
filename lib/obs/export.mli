(** JSON views of simulator counters and latency histograms; field order
    fixed for byte-stable output. *)

val metrics_json : Metrics.t -> Json.t
val histogram_json : Histogram.t -> Json.t
