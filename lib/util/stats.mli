(** Summary statistics for latency samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val mean : float array -> float
val stddev : float array -> float

(** Nearest-rank percentile; [q] in [0, 100]. *)
val percentile : float array -> float -> float

val summarize : float array -> summary

(** Geometric mean, for averaging speedup ratios. *)
val geomean : float array -> float
