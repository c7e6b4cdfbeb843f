(* perf.exe: the two-clock benchmark.

     perf.exe [--workload W]... [--seed N] [--reps N | --seconds S]
              [--trace [0|1]] [--out FILE] [--bench FILE]
     perf.exe compare A.json B.json [--bench FILE]
     perf.exe smoke [--bench FILE]
     perf.exe crosscheck

   Each (workload, repetition) runs in a fresh child process, one at a
   time; repetitions go round-robin across workloads so drift on a shared
   machine spreads over all of them. The parent reports the median and
   quartiles of every metric, checks that simulated metrics repeat
   exactly across repetitions, and, when one workload is selected, ends
   with one JSON line holding the metrics BENCHMARK.json declares:
   [end_to_end] untraced, [per_layer] with [--trace 1]. The process exits
   non-zero when any check fails. *)

module J = Pstm_obs.Json
module W = Workload

(* --- Statistics ------------------------------------------------------------- *)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes them
   (the "exclusive" method), so reported spreads match external checks. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* Full precision: a metric is printed as measured, with all its digits. *)
let number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

(* --- BENCHMARK.json ------------------------------------------------------------ *)

type declared = { d_name : string; d_unit : string; d_better : string; d_bound : float option }

type bench = { workloads : string list; end_to_end : declared list; per_layer : declared list }

let read_bench path =
  let doc = Json_read.file path in
  let metric m =
    {
      d_name = Json_read.(to_string (member "name" m));
      d_unit = Json_read.(to_string (member "unit" m));
      d_better = Json_read.(to_string (member "better" m));
      d_bound = (try Some Json_read.(to_float (member "bound" m)) with Json_read.Error _ -> None);
    }
  in
  let list key = Json_read.(to_list (member key doc)) in
  {
    workloads = List.map (fun w -> Json_read.(to_string (member "name" w))) (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* --- Children ------------------------------------------------------------------ *)

(* The child writes one marshalled sample on a private copy of its
   stdout; while the workload runs, stdout points at stderr so nothing the
   program prints can corrupt the sample. *)
let child ~workload ~size ~seed ~trace ~oracle =
  let w = Option.get (W.find workload) in
  let out = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let sample = W.rep w ~size ~seed ~trace ~oracle in
  let oc = Unix.out_channel_of_descr out in
  Marshal.to_channel oc (sample : W.sample) [];
  close_out oc

let size_name = function W.Full -> "full" | W.Tiny -> "tiny"

let spawn ~workload ~size ~seed ~trace ~oracle : W.sample =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "child"; "--workload"; workload; "--size"; size_name size; "--seed"; string_of_int seed;
      "--trace"; (if trace then "1" else "0"); "--oracle"; (if oracle then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  set_binary_mode_in ic true;
  let sample = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
  match (Unix.close_process_in ic, sample) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith (Printf.sprintf "child for %s (seed %d) failed" workload seed)

(* --- Runs ------------------------------------------------------------------------ *)

type result = { workload : string; samples : W.sample list (* in run order *) }

(* [Seconds s] starts another round only while the last one would still
   fit in [s] seconds; at least one round always runs. *)
type budget = Reps of int | Seconds of float

type plan = { names : string list; size : W.size; seed : int; trace : bool; budget : budget }

(* Repetitions go round-robin across the selected workloads. *)
let execute plan =
  let t0 = Measure.now_ns () in
  let elapsed () = Measure.seconds (Measure.now_ns () - t0) in
  let acc = Hashtbl.create 4 in
  let rec round k =
    let r0 = elapsed () in
    List.iter
      (fun workload ->
        let s = spawn ~workload ~size:plan.size ~seed:plan.seed ~trace:plan.trace ~oracle:(k = 0) in
        Hashtbl.replace acc workload (s :: Option.value (Hashtbl.find_opt acc workload) ~default:[]))
      plan.names;
    let last = elapsed () -. r0 in
    let again =
      match plan.budget with Seconds s -> elapsed () +. last <= s | Reps n -> k + 1 < n
    in
    if again then round (k + 1)
  in
  round 0;
  List.map (fun workload -> { workload; samples = List.rev (Hashtbl.find acc workload) }) plan.names

let values_of r name = List.map (fun s -> List.assoc name s.W.values) r.samples

(* Which metrics a run reports: untraced runs skip the traced-only ones. *)
let reported ~trace = List.filter (fun (name, _, _) -> trace || not (W.traced_only name)) W.catalogue

let problems r =
  let digests = List.sort_uniq compare (List.map (fun s -> s.W.digest) r.samples) in
  (if List.length digests > 1 then [ "simulated metrics differ across repetitions" ] else [])
  @ List.concat_map (fun s -> s.W.notes) r.samples

let table_lines ~trace r =
  let header = Printf.sprintf "  %-30s %-8s %14s %14s %14s" "metric" "unit" "median" "q1" "q3" in
  header
  :: List.map
       (fun (name, unit, _) ->
         let q1, med, q3 = quartiles (values_of r name) in
         Printf.sprintf "  %-30s %-8s %14.6g %14.6g %14.6g" name unit med q1 q3)
       (reported ~trace)

let print_result plan r =
  let w = Option.get (W.find r.workload) in
  Printf.printf "\n== %s: %s ==\n" r.workload (W.describe (w.W.params plan.size ~traced:false));
  if plan.trace then
    Printf.printf "   traced variant: %s\n" (W.describe (w.W.params plan.size ~traced:true));
  Printf.printf "   seed %d, %d repetition(s), %d ops attempted per repetition, oracle mismatches %d\n"
    plan.seed (List.length r.samples) (List.hd r.samples).W.attempted
    (List.fold_left (fun n s -> n + s.W.mismatches) 0 r.samples);
  List.iter print_endline (table_lines ~trace:plan.trace r);
  List.iter (fun p -> Printf.printf "   FAILED: %s\n" p) (problems r)

let results_json plan results =
  J.Obj
    [
      ("schema", J.Str "graphdance-perf/1");
      ("seed", J.Int plan.seed);
      ("trace", J.Bool plan.trace);
      ( "workloads",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("name", J.Str r.workload);
                   ( "metrics",
                     J.List
                       (List.map
                          (fun (name, unit, _) ->
                            J.Obj
                              [
                                ("name", J.Str name);
                                ("unit", J.Str unit);
                                ("values", J.List (List.map (fun v -> J.Raw (number v)) (values_of r name)));
                              ])
                          (reported ~trace:plan.trace)) );
                 ])
             results) );
    ]

(* The last line of a single-workload run. *)
let result_line ~bench ~trace r =
  let declared = if trace then bench.per_layer else bench.end_to_end in
  let metrics =
    List.map
      (fun d ->
        let _, med, _ = quartiles (values_of r d.d_name) in
        (d.d_name, J.Obj [ ("value", J.Raw (number med)); ("unit", J.Str d.d_unit) ]))
      declared
  in
  let sum f = List.fold_left (fun n s -> n + f s) 0 r.samples in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (problems r = []));
         ("attempted", J.Int (sum (fun s -> s.W.attempted)));
         ("failed", J.Int (sum (fun s -> s.W.failed)));
         ("metrics", J.Obj metrics);
       ])

let run_bench plan ~bench_path ~out =
  (* Read the declaration first: a checkout without it has nothing to report. *)
  let bench = read_bench bench_path in
  let results = execute plan in
  List.iter (print_result plan) results;
  Option.iter (fun path -> J.write_file path (results_json plan results)) out;
  (match results with
  | [ r ] -> print_endline (result_line ~bench ~trace:plan.trace r)
  | _ -> ());
  if List.exists (fun r -> problems r <> []) results then exit 1

(* --- compare ------------------------------------------------------------------------ *)

(* One row per workload x metric: each side's median and quartiles and a
   verdict against the metric's bound. A metric is unresolved when the
   base side's own spread exceeds the bound, unless every run of the new
   side beats every run of the base. *)
let verdict ~better ~bound base next =
  let b1, bm, b3 = quartiles base and _, nm, _ = quartiles next in
  let sign = if better = "higher" then -1.0 else 1.0 in
  let rel x = if bm = 0.0 then x else x /. Float.abs bm in
  let worse_by = sign *. rel (nm -. bm) and spread = rel (b3 -. b1) in
  let beats x y = sign *. (x -. y) < 0.0 in
  if spread > bound then
    if List.for_all (fun x -> List.for_all (fun y -> beats x y) base) next then "better"
    else "unresolved"
  else if worse_by > bound then "worse"
  else if worse_by < -.bound then "better"
  else "unchanged"

let compare_files ~bench_path a_path b_path =
  let bench = read_bench bench_path in
  (* A file holds one result set, or several under "sets" (a recorded
     baseline), whose values are pooled. *)
  let load path =
    let doc = Json_read.file path in
    let sets = try Json_read.(to_list (member "sets" doc)) with Json_read.Error _ -> [ doc ] in
    let values = Hashtbl.create 256 and keys = ref [] in
    List.iter
      (fun set ->
        List.iter
          (fun w ->
            let wname = Json_read.(to_string (member "name" w)) in
            List.iter
              (fun m ->
                let key = (wname, Json_read.(to_string (member "name" m))) in
                let vs = List.map Json_read.to_float Json_read.(to_list (member "values" m)) in
                match Hashtbl.find_opt values key with
                | Some prev -> Hashtbl.replace values key (prev @ vs)
                | None ->
                  keys := key :: !keys;
                  Hashtbl.replace values key vs)
              Json_read.(to_list (member "metrics" w)))
          Json_read.(to_list (member "workloads" set)))
      sets;
    List.rev_map (fun key -> (key, Hashtbl.find values key)) !keys
  in
  let a = load a_path and b = load b_path in
  let show vs =
    let q1, med, q3 = quartiles vs in
    Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3
  in
  let worse = ref 0 in
  Printf.printf "%-15s %-28s %-40s %-40s %8s %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "verdict";
  List.iter
    (fun ((wname, mname), av) ->
      match List.assoc_opt (wname, mname) b with
      | None -> ()
      | Some bv ->
        let decl = List.find_opt (fun d -> d.d_name = mname) (bench.end_to_end @ bench.per_layer) in
        let _, am, _ = quartiles av and _, bm, _ = quartiles bv in
        let delta = if am = 0.0 then 0.0 else 100.0 *. (bm -. am) /. Float.abs am in
        let v =
          match decl with
          | Some { d_bound = Some bound; d_better; _ } -> verdict ~better:d_better ~bound av bv
          | _ -> "-"
        in
        if v = "worse" then incr worse;
        Printf.printf "%-15s %-28s %-40s %-40s %+7.2f%% %s\n" wname mname (show av) (show bv) delta v)
    a;
  Printf.printf "\n%d metric(s) worse beyond their bound\n" !worse

(* --- smoke ----------------------------------------------------------------------------- *)

(* Every workload at tiny size, one repetition untraced and one traced,
   through the same child path as a real run. Asserts that BENCHMARK.json
   names exactly these workloads, that every metric it declares is
   printed with its unit, and that every check passed. *)
let smoke ~bench_path =
  let bench = read_bench bench_path in
  let names = List.map (fun w -> w.W.name) W.workloads in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if List.sort compare bench.workloads <> List.sort compare names then
    error "BENCHMARK.json workloads differ from the benchmark's";
  List.iter
    (fun trace ->
      let plan = { names; size = W.Tiny; seed = 1; trace; budget = Reps 1 } in
      let results = execute plan in
      List.iter
        (fun r ->
          let printed = table_lines ~trace r in
          List.iter print_endline printed;
          List.iter (fun p -> error "%s: %s" r.workload p) (problems r);
          List.iter
            (fun d ->
              let prefix = Printf.sprintf "  %-30s %-8s " d.d_name d.d_unit in
              if not (List.exists (String.starts_with ~prefix) printed) then
                error "%s: %s (%s) not printed" r.workload d.d_name d.d_unit)
            (if trace then bench.per_layer else bench.end_to_end))
        results)
    [ false; true ];
  match !errors with
  | [] -> print_endline "perf smoke: ok"
  | es ->
    List.iter prerr_endline (List.rev es);
    exit 1

let crosscheck () =
  let expected_ms, expected_rx = W.bench10_flat64 in
  let makespan_ms, root_rx = W.crosscheck () in
  Printf.printf "khop-scale64 on bench scale's starts: makespan %.6f ms (BENCH_10: %.6f), root rx %d (BENCH_10: %d)\n"
    makespan_ms expected_ms root_rx expected_rx;
  if makespan_ms <> expected_ms || root_rx <> expected_rx then exit 1

(* --- Command line ------------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe [--workload W]... [--seed N] [--reps N | --seconds S] [--trace [0|1]] \
     [--out FILE] [--bench FILE]\n\
    \       perf.exe compare A.json B.json [--bench FILE]\n\
    \       perf.exe smoke [--bench FILE]\n\
    \       perf.exe crosscheck";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workloads = ref [] and seed = ref 1 and budget = ref (Reps 5) in
  let trace = ref false and out = ref None and bench = ref "BENCHMARK.json" in
  let size = ref W.Full and oracle = ref true and positional = ref [] in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if W.find w = None then begin
        Printf.eprintf "unknown workload %s\n" w;
        exit 2
      end;
      workloads := !workloads @ [ w ];
      parse rest
    | "--seed" :: n :: rest -> seed := int_arg n; parse rest
    | "--reps" :: n :: rest -> budget := Reps (max 1 (int_arg n)); parse rest
    | "--seconds" :: n :: rest ->
      budget := Seconds (match float_of_string_opt n with Some s -> s | None -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--bench" :: f :: rest -> bench := f; parse rest
    | "--size" :: s :: rest -> size := (if s = "tiny" then W.Tiny else W.Full); parse rest
    | "--oracle" :: v :: rest -> oracle := v = "1"; parse rest
    | a :: _ when String.starts_with ~prefix:"--" a -> usage ()
    | a :: rest -> positional := !positional @ [ a ]; parse rest
  in
  let mode, rest =
    match args with ("child" | "compare" | "smoke" | "crosscheck" as m) :: r -> (m, r) | r -> ("run", r)
  in
  parse rest;
  match (mode, !positional) with
  | "child", [] -> (
    match !workloads with
    | [ workload ] -> child ~workload ~size:!size ~seed:!seed ~trace:!trace ~oracle:!oracle
    | _ -> usage ())
  | "compare", [ a; b ] -> compare_files ~bench_path:!bench a b
  | "smoke", [] -> smoke ~bench_path:!bench
  | "crosscheck", [] -> crosscheck ()
  | "run", [] ->
    let names = match !workloads with [] -> List.map (fun w -> w.W.name) W.workloads | ws -> ws in
    run_bench
      { names; size = !size; seed = !seed; trace = !trace; budget = !budget }
      ~bench_path:!bench ~out:!out
  | _ -> usage ()
