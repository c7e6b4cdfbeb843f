(* Structured verifier diagnostics.

   Every finding names the invariant class it violates, the offending step
   (when one exists) and a human-readable explanation, so planner and
   engine bugs surface as actionable compile-time reports instead of
   nondeterministic hangs in the simulator. *)

type severity =
  | Error (* the program would hang or read an undefined register *)
  | Warning (* suspicious but executable *)

type kind =
  | Malformed (* well formed, but cannot behave as written: a Visit with max_hops < 1 *)
  | Unbounded_repeat (* a control-flow cycle with no Visit memo bound *)
  | Use_before_def (* a register read on a path where nothing defined it *)

type t = {
  severity : severity;
  kind : kind;
  step : int option; (* offending step index, when the finding has one *)
  message : string;
}

let kind_name = function
  | Malformed -> "malformed"
  | Unbounded_repeat -> "unbounded-repeat"
  | Use_before_def -> "use-before-def"

let severity_name = function Error -> "error" | Warning -> "warning"

let error ?step kind fmt =
  Fmt.kstr (fun message -> { severity = Error; kind; step; message }) fmt

let warning ?step kind fmt =
  Fmt.kstr (fun message -> { severity = Warning; kind; step; message }) fmt

let is_error d = d.severity = Error

let pp ppf d =
  Fmt.pf ppf "%s[%s]%a: %s" (severity_name d.severity) (kind_name d.kind)
    (fun ppf -> function None -> () | Some i -> Fmt.pf ppf " step %d" i)
    d.step d.message
