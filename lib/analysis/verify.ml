(* Static program verifier: the analyses of a compiled PSTM program that
   Program.make does not make.

   Program.make is the one structural validator (entries, successor
   targets, register ranges, phases, join pairing, one aggregate per
   phase), and every Program.t has passed it. What a well-formed program
   can still get wrong, the verifier reports all at once, each finding a
   structured Diagnostic:

   - weight flow: every control-flow cycle passes through a Visit step,
     whose memo min-distance bound is the only thing that makes loops
     terminate — a cycle without one lets traversers multiply forever and
     the phase's finished weight never sums back to the root (Theorem 1);
   - registers: def-before-use — a forward must-be-defined dataflow over
     the step graph; reading a register no path has written evaluates
     Null and silently corrupts predicates and join keys;
   - a Visit with max_hops < 1, which never takes its loop edge (a
     warning: the program still runs). *)

let check_max_hops p add =
  Array.iteri
    (fun i s ->
      match s.Step.op with
      | Step.Visit { max_hops; _ } when max_hops < 1 ->
        add
          (Diagnostic.warning ~step:i Diagnostic.Malformed
             "visit with max_hops %d never takes its loop edge" max_hops)
      | _ -> ())
    (Program.steps p)

(* --- Weight flow: every cycle must be Visit-bounded -------------------- *)

(* The Visit step's memo min-distance update is the only mechanism that
   bounds a loop: a traverser re-entering a visited vertex without an
   improved distance dies there. A cycle avoiding every Visit step can
   multiply traversers forever — the phase's finished weight never sums
   to the root and the query hangs. Detected by DFS on the subgraph
   induced on non-Visit steps. *)
let check_cycles p add =
  let n = Program.n_steps p in
  let is_visit i = match (Program.step p i).Step.op with Step.Visit _ -> true | _ -> false in
  let color = Array.make n 0 in
  let rec dfs i =
    color.(i) <- 1;
    List.iter
      (fun j ->
        if not (is_visit j) then begin
          if color.(j) = 1 then
            add
              (Diagnostic.error ~step:j Diagnostic.Unbounded_repeat
                 "step %d loops back to step %d without passing a Visit bound: traversers \
                  can cycle forever and the phase's weight never finishes"
                 i j)
          else if color.(j) = 0 then dfs j
        end)
      (Program.successors p i);
    color.(i) <- 2
  in
  for i = 0 to n - 1 do
    if (not (is_visit i)) && color.(i) = 0 then dfs i
  done

(* --- Registers: def-before-use ----------------------------------------- *)

(* Forward must-be-defined analysis. A register is defined along an edge
   if every path from an entry to that edge writes it: Set_reg defines
   its target, a Join's cont edge defines its load_regs, and an
   Aggregate's continuation edge RESETS the set to the aggregate's result
   register — the continuation is a fresh traverser whose other
   registers are Null again. Reads outside the defined set evaluate Null
   and silently corrupt predicates, join keys and routing. *)
let check_use_before_def p add =
  let steps = Program.steps p in
  let nr = Program.n_registers p in
  let in_defs = Array.make (Array.length steps) None in
  let worklist = Queue.create () in
  let meet i defs =
    match in_defs.(i) with
    | None ->
      in_defs.(i) <- Some (Array.copy defs);
      Queue.add i worklist
    | Some cur ->
      let changed = ref false in
      for r = 0 to nr - 1 do
        if cur.(r) && not defs.(r) then begin
          cur.(r) <- false;
          changed := true
        end
      done;
      if !changed then Queue.add i worklist
  in
  let empty = Array.make nr false in
  Array.iter (fun e -> meet e empty) (Program.entries p);
  while not (Queue.is_empty worklist) do
    let i = Queue.pop worklist in
    let defs = Option.get in_defs.(i) in
    let out =
      match steps.(i).Step.op with
      | Step.Set_reg { reg; _ } ->
        let d = Array.copy defs in
        d.(reg) <- true;
        d
      | Step.Join { load_regs; _ } ->
        let d = Array.copy defs in
        Array.iter (fun r -> d.(r) <- true) load_regs;
        d
      | Step.Aggregate { reg; _ } ->
        let d = Array.make nr false in
        d.(reg) <- true;
        d
      | _ -> defs
    in
    List.iter (fun j -> meet j out) (Program.successors p i)
  done;
  (* Program.make rejects unreachable steps, so every step has a set. *)
  Array.iteri
    (fun i s ->
      let defs = Option.get in_defs.(i) in
      let reported = Hashtbl.create 2 in
      let read r =
        if (not defs.(r)) && not (Hashtbl.mem reported r) then begin
          Hashtbl.add reported r ();
          add
            (Diagnostic.error ~step:i Diagnostic.Use_before_def
               "step %d (%s) reads register %d, but some path from an entry \
                reaches it with the register undefined"
               i (Step.op_name s.Step.op) r)
        end
      in
      let expr e = Step.iter_regs_expr read e in
      match s.Step.op with
      | Step.Index_lookup _ | Step.Scan _ | Step.Expand _ -> ()
      | Step.Filter p -> Step.iter_regs_pred read p
      | Step.Set_reg { expr = e; _ } -> expr e
      | Step.Move_to { reg } -> read reg
      | Step.Dedup { by } -> expr by
      | Step.Visit { dist_reg; _ } -> read dist_reg
      | Step.Join { key; store; _ } ->
        expr key;
        Array.iter expr store
      | Step.Aggregate { agg; _ } -> Step.iter_regs_agg read agg
      | Step.Emit exprs -> Array.iter expr exprs)
    steps

(* --- Entry points ------------------------------------------------------- *)

let check_program p =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  check_max_hops p add;
  check_cycles p add;
  check_use_before_def p add;
  List.rev !diags

let errors diags = List.filter Diagnostic.is_error diags
let is_clean diags = errors diags = []

let pp_report ppf = function
  | [] -> Fmt.pf ppf "ok"
  | diags -> Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Diagnostic.pp) diags

(* Gate for program-construction sites (the compiler, hand-built LDBC
   programs): verification failures surface as Program.Invalid, the same
   exception construction errors already raise. *)
let program_exn p =
  match errors (check_program p) with
  | [] -> p
  | errs ->
    raise
      (Program.Invalid
         (Fmt.str "@[<v>program %s fails verification:@,%a@]" (Program.name p) pp_report errs))
