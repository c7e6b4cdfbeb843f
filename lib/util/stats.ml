(* Summary statistics for latency samples.

   The LDBC driver reports average and P99 latency (Figure 7) and the
   scalability studies report means over repeated runs, so percentiles use
   the nearest-rank method on a sorted copy of the sample. *)

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

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let stddev samples =
  let n = Array.length samples in
  if n < 2 then 0.0
  else begin
    let m = mean samples in
    let sum_sq = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 samples in
    sqrt (sum_sq /. float_of_int (n - 1))
  end

(* Nearest-rank percentile on an already sorted array. *)
let percentile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else if q <= 0.0 then sorted.(0)
  else if q >= 100.0 then sorted.(n - 1)
  else begin
    let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let percentile samples q =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  percentile_sorted sorted q

let summarize samples =
  let n = Array.length samples in
  if n = 0 then
    { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p99 = 0. }
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    {
      count = n;
      mean = mean samples;
      stddev = stddev samples;
      min = sorted.(0);
      max = sorted.(n - 1);
      p50 = percentile_sorted sorted 50.0;
      p90 = percentile_sorted sorted 90.0;
      p99 = percentile_sorted sorted 99.0;
    }
  end

(* Geometric mean of ratios, used when averaging speedups across queries. *)
let geomean samples =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let sum_log = Array.fold_left (fun acc x -> acc +. log (max x 1e-300)) 0.0 samples in
    exp (sum_log /. float_of_int n)
  end
