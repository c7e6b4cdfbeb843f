(* Compiled PSTM programs: a step array plus the static analysis every
   engine relies on.

   The analysis assigns each step to a *phase*. Aggregate steps are the
   only phase boundaries: everything feeding an aggregation belongs to one
   subquery (§III-C) whose termination is tracked separately, and the
   aggregation's continuation starts the next phase with a fresh root
   weight. [make] is the one structural validator: it rejects malformed
   control flow, registers, phases and join pairs up front, so the
   engines interpret steps without defensive checks and the verifier
   ([Pstm_analysis.Verify]) analyses only programs that are well formed. *)

type t = {
  name : string;
  steps : Step.t array;
  n_registers : int;
  entries : int array; (* indices of source steps, started in parallel *)
  phase_of_step : int array;
  n_phases : int;
  agg_of_phase : int option array; (* the Aggregate step closing each phase *)
  join_partner : int array; (* for Join steps, the opposite side's index *)
  routing : Step.routing array; (* each step's h_psi, built once here, not per dispatch *)
  chains : int array array; (* each step's fused chain, [||] unless it is fusable *)
  chain_exits : int array; (* the step a chain's surviving leaves land on *)
}

exception Invalid of string

let invalid fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

(* Successor edges of a step; [`Bump] marks the phase boundary after an
   aggregation. *)
let edges step =
  match step.Step.op with
  | Step.Emit _ -> []
  | Step.Visit { cont; _ } -> [ (step.Step.next, `Same); (cont, `Same) ]
  | Step.Join { cont; _ } -> [ (cont, `Same) ]
  | Step.Aggregate _ -> [ (step.Step.next, `Bump) ]
  | Step.Index_lookup _ | Step.Scan _ | Step.Expand _ | Step.Filter _ | Step.Set_reg _
  | Step.Move_to _ | Step.Dedup _ ->
    [ (step.Step.next, `Same) ]

(* The error context "step %d (%s)" is formatted only when a check
   fails: building it for every step of every valid program cost most
   of [make]'s allocation. *)
let bad_register i op r = invalid "step %d (%s): register %d out of range" i (Step.op_name op) r

(* Every register a step names, written or read, must be in range. *)
let check_registers steps n_registers =
  Array.iteri
    (fun i step ->
      let op = step.Step.op in
      let reg r = if r < 0 || r >= n_registers then bad_register i op r in
      let expr e = Step.iter_regs_expr reg e in
      match op with
      | Step.Index_lookup _ | Step.Scan _ | Step.Expand _ -> ()
      | Step.Filter p -> Step.iter_regs_pred reg p
      | Step.Set_reg { reg = r; expr = e } ->
        reg r;
        expr e
      | Step.Move_to { reg = r } -> reg r
      | Step.Dedup { by } -> expr by
      | Step.Visit { dist_reg; _ } -> reg dist_reg
      | Step.Join { key; store; load_regs; _ } ->
        expr key;
        Array.iter expr store;
        Array.iter reg load_regs
      | Step.Aggregate { agg; reg = r } ->
        reg r;
        Step.iter_regs_agg reg agg
      | Step.Emit exprs -> Array.iter expr exprs)
    steps

(* The maximal run of fusable steps starting at [i], linked by [next], in
   execution order. [next] always moves forward through a validated
   program, so no cycle can occur; the walk is bounded by the step count
   anyway. *)
let fused_chain steps i =
  let n = Array.length steps in
  let rec walk idx count acc =
    if count < n && idx >= 0 && Step.fusable steps.(idx).Step.op then
      walk steps.(idx).Step.next (count + 1) (idx :: acc)
    else Array.of_list (List.rev acc)
  in
  walk i 0 []

(* Pair up the two sides of each join; returns the partner array. *)
let check_join_pairing steps phase_of_step =
  let join_partner = Array.make (Array.length steps) (-1) in
  let sides = Hashtbl.create 4 in
  Array.iteri
    (fun i step ->
      match step.Step.op with
      | Step.Join { join_id; side; store; load_regs; _ } ->
        let a, b = Option.value ~default:(None, None) (Hashtbl.find_opt sides join_id) in
        let entry = Some (i, Array.length store, Array.length load_regs) in
        (match side with
        | Step.Side_a ->
          if a <> None then invalid "join %d has two A sides" join_id;
          Hashtbl.replace sides join_id (entry, b)
        | Step.Side_b ->
          if b <> None then invalid "join %d has two B sides" join_id;
          Hashtbl.replace sides join_id (a, entry))
      | _ -> ())
    steps;
  let ids =
    (* det-ok: ids sorted before use, so the first error reported is stable *)
    List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) sides [])
  in
  List.iter
    (fun join_id ->
      match Hashtbl.find sides join_id with
      | Some (ia, store_a, load_a), Some (ib, store_b, load_b) ->
        if store_a <> load_b then
          invalid "join %d: side A stores %d values but side B loads %d" join_id store_a load_b;
        if store_b <> load_a then
          invalid "join %d: side B stores %d values but side A loads %d" join_id store_b load_a;
        if phase_of_step.(ia) <> phase_of_step.(ib) then
          invalid "join %d: sides in different phases" join_id;
        join_partner.(ia) <- ib;
        join_partner.(ib) <- ia
      | _ -> invalid "join %d is missing a side" join_id)
    ids;
  join_partner

let make ~name ~steps ~n_registers ~entries =
  let n = Array.length steps in
  if n = 0 then invalid "empty program";
  if Array.length entries = 0 then invalid "program has no entry steps";
  if n_registers < 0 then invalid "negative register count";
  Array.iter
    (fun e ->
      if e < 0 || e >= n then invalid "entry index %d out of range" e;
      if not (Step.is_source steps.(e).Step.op) then
        invalid "entry step %d (%s) is not a source" e (Step.op_name steps.(e).Step.op))
    entries;
  Array.iteri
    (fun i step ->
      if Step.is_source step.Step.op && not (Array.exists (Int.equal i) entries) then
        invalid "source step %d is not listed as an entry" i)
    steps;
  (* Range-check successor indices. Every step but Emit forwards its
     traverser, so one with no successor (next = -1) fails here: it would
     finish its weight without its semantics asking for it (Theorem 1).
     An aggregate's continuation always lies in the phase after it, so
     no aggregate can close the final phase. *)
  Array.iteri
    (fun i step ->
      let check_target ctx target =
        if target < 0 || target >= n then invalid "step %d: %s target %d out of range" i ctx target
      in
      (match step.Step.op with
      | Step.Emit _ ->
        if step.Step.next <> -1 then invalid "step %d: emit must be terminal" i
      | Step.Visit { cont; _ } ->
        check_target "next" step.Step.next;
        check_target "cont" cont
      | Step.Join { cont; _ } -> check_target "cont" cont
      | _ -> check_target "next" step.Step.next))
    steps;
  check_registers steps n_registers;
  (* Phase assignment by BFS from the entries. *)
  let phase_of_step = Array.make n (-1) in
  let queue = Queue.create () in
  Array.iter
    (fun e ->
      phase_of_step.(e) <- 0;
      Queue.add e queue)
    entries;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let p = phase_of_step.(i) in
    List.iter
      (fun (j, bump) ->
        let q = match bump with `Same -> p | `Bump -> p + 1 in
        if phase_of_step.(j) = -1 then begin
          phase_of_step.(j) <- q;
          Queue.add j queue
        end
        else if phase_of_step.(j) <> q then
          invalid "step %d reachable in phases %d and %d" j phase_of_step.(j) q)
      (edges steps.(i))
  done;
  Array.iteri
    (fun i p -> if p = -1 then invalid "step %d (%s) is unreachable" i (Step.op_name steps.(i).Step.op))
    phase_of_step;
  let n_phases = 1 + Array.fold_left max 0 phase_of_step in
  let agg_of_phase = Array.make n_phases None in
  Array.iteri
    (fun i step ->
      match step.Step.op with
      | Step.Aggregate _ ->
        let p = phase_of_step.(i) in
        (match agg_of_phase.(p) with
        | None -> agg_of_phase.(p) <- Some i
        | Some other -> invalid "phase %d has two aggregate steps (%d and %d)" p other i)
      | _ -> ())
    steps;
  let join_partner = check_join_pairing steps phase_of_step in
  let routing = Array.map (fun step -> Step.routing step.Step.op) steps in
  let chains = Array.init (Array.length steps) (fused_chain steps) in
  let chain_exits =
    Array.mapi
      (fun i chain ->
        if Array.length chain = 0 then i else steps.(chain.(Array.length chain - 1)).Step.next)
      chains
  in
  { name; steps; n_registers; entries; phase_of_step; n_phases; agg_of_phase; join_partner; routing;
    chains; chain_exits }

let name t = t.name
let steps t = t.steps
let step t i = t.steps.(i)
let n_steps t = Array.length t.steps
let n_registers t = t.n_registers
let entries t = t.entries
let n_phases t = t.n_phases
let phase_of_step t i = t.phase_of_step.(i)
let agg_of_phase t p = t.agg_of_phase.(p)
let routing t i = t.routing.(i)
let chain t i = t.chains.(i)
let chain_exit t i = t.chain_exits.(i)
let successors t i = List.map fst (edges t.steps.(i))

let join_partner t i =
  let p = t.join_partner.(i) in
  if p = -1 then invalid_arg "Program.join_partner: step is not a join side";
  p

let pp ppf t =
  Fmt.pf ppf "@[<v>program %s (%d regs, %d phases)@," t.name t.n_registers t.n_phases;
  Array.iteri
    (fun i step -> Fmt.pf ppf "  %2d [p%d] %a@," i t.phase_of_step.(i) Step.pp step)
    t.steps;
  Fmt.pf ppf "@]"

(* --- Templates: a program compiled once, its literals bound later ---

   A template is a checked program whose parameter literals are markers,
   [param i] for slot [i]. No check of [make] (nor of the verifier, the
   planner or the strategies) reads a literal's value, so a program that
   differs from the template only in those literals passes every check
   the template passed, and has the same phases, routing and chains.
   [bind] therefore builds no analysis: a bound program shares every
   array of its template but the step array, and only the steps that
   hold a parameter get a new op there.

   Each such step's rebuild is staged once, at template time, as a
   function of the parameter array: it rebuilds the nodes on the path to
   a parameter and shares every other subterm with the template. So
   [bind] neither searches an op for markers nor compares a [Value.t]. *)

(* A marker is a negative edge id, which no graph has: -1 for slot 0, -2
   for slot 1 and so on. So no literal a query means can be mistaken
   for a marker. *)
let param i =
  if i < 0 then invalid_arg "Program.param: negative slot";
  Value.Edge (-1 - i)

let marker_slot = function Value.Edge e when e < 0 -> -1 - e | _ -> -1

type 'a rebuild = Value.t array -> 'a

let keep x (_ : Value.t array) = x

(* Combine two subterms' rebuilds; [None] when neither holds a
   parameter. *)
let stage2 mk a fa b fb =
  match fa, fb with
  | None, None -> None
  | _ ->
    let fa = Option.value fa ~default:(keep a) and fb = Option.value fb ~default:(keep b) in
    Some (fun p -> mk (fa p) (fb p))

let rec stage_expr slot (e : Step.expr) : Step.expr rebuild option =
  match e with
  | Step.Const c ->
    let i = slot c in
    if i < 0 then None else Some (fun p -> Step.Const p.(i))
  | Step.Add (a, b) -> stage2 (fun a b -> Step.Add (a, b)) a (stage_expr slot a) b (stage_expr slot b)
  | Step.Pair (a, b) -> stage2 (fun a b -> Step.Pair (a, b)) a (stage_expr slot a) b (stage_expr slot b)
  | Step.Reg _ | Step.Vertex_id | Step.Vertex_label | Step.Prop _ | Step.Prop_of _ -> None

let rec stage_pred slot (pr : Step.pred) : Step.pred rebuild option =
  match pr with
  | Step.True -> None
  | Step.Cmp (c, a, b) ->
    stage2 (fun a b -> Step.Cmp (c, a, b)) a (stage_expr slot a) b (stage_expr slot b)
  | Step.And (a, b) -> stage2 (fun a b -> Step.And (a, b)) a (stage_pred slot a) b (stage_pred slot b)
  | Step.Or (a, b) -> stage2 (fun a b -> Step.Or (a, b)) a (stage_pred slot a) b (stage_pred slot b)
  | Step.Not a -> Option.map (fun fa p -> Step.Not (fa p)) (stage_pred slot a)

let stage_exprs slot exprs : Step.expr array rebuild option =
  let staged = Array.map (stage_expr slot) exprs in
  if Array.for_all Option.is_none staged then None
  else
    let fs = Array.mapi (fun i f -> Option.value f ~default:(keep exprs.(i))) staged in
    Some (fun p -> Array.map (fun f -> f p) fs)

let stage_agg slot (agg : Step.agg) : Step.agg rebuild option =
  let map mk e = Option.map (fun f p -> mk (f p)) (stage_expr slot e) in
  match agg with
  | Step.Count -> None
  | Step.Sum e -> map (fun e -> Step.Sum e) e
  | Step.Max e -> map (fun e -> Step.Max e) e
  | Step.Min e -> map (fun e -> Step.Min e) e
  | Step.Group_count e -> map (fun e -> Step.Group_count e) e
  | Step.Collect { expr; limit } -> map (fun expr -> Step.Collect { expr; limit }) expr
  | Step.Topk { k; score; output } ->
    stage2
      (fun score output -> Step.Topk { k; score; output })
      score (stage_expr slot score) output (stage_expr slot output)

let stage_op slot (op : Step.op) : Step.op rebuild option =
  match op with
  | Step.Index_lookup { vertex_label; key; value } ->
    let i = slot value in
    if i < 0 then None else Some (fun p -> Step.Index_lookup { vertex_label; key; value = p.(i) })
  | Step.Filter pr -> Option.map (fun f p -> Step.Filter (f p)) (stage_pred slot pr)
  | Step.Set_reg { reg; expr } ->
    Option.map (fun f p -> Step.Set_reg { reg; expr = f p }) (stage_expr slot expr)
  | Step.Dedup { by } -> Option.map (fun f p -> Step.Dedup { by = f p }) (stage_expr slot by)
  | Step.Join { join_id; side; key; store; load_regs; cont } ->
    stage2
      (fun key store -> Step.Join { join_id; side; key; store; load_regs; cont })
      key (stage_expr slot key) store (stage_exprs slot store)
  | Step.Aggregate { agg; reg } ->
    Option.map (fun f p -> Step.Aggregate { agg = f p; reg }) (stage_agg slot agg)
  | Step.Emit exprs -> Option.map (fun f p -> Step.Emit (f p)) (stage_exprs slot exprs)
  | Step.Scan _ | Step.Expand _ | Step.Move_to _ | Step.Visit _ -> None

type template = {
  program : t; (* checked, with a marker for each parameter *)
  n_params : int;
  param_steps : int array; (* the steps holding a parameter, ascending *)
  rebuilds : Step.op rebuild array; (* each one's op from the parameters *)
}

let template ~params program =
  if params < 0 then invalid_arg "Program.template: negative parameter count";
  let slot v =
    let i = marker_slot v in
    if i >= params then invalid "%s: parameter %d of %d" program.name i params;
    i
  in
  let staged = Array.map (fun step -> stage_op slot step.Step.op) program.steps in
  Array.iteri
    (fun i step ->
      match Step.routing step.Step.op with
      | Step.By_key key when Option.is_some (stage_expr slot key) ->
        invalid "%s: step %d routes by a parameter" program.name i
      | _ -> ())
    program.steps;
  let held = ref [] in
  for i = Array.length staged - 1 downto 0 do
    Option.iter (fun f -> held := (i, f) :: !held) staged.(i)
  done;
  {
    program;
    n_params = params;
    param_steps = Array.of_list (List.map fst !held);
    rebuilds = Array.of_list (List.map snd !held);
  }

let bind tpl values =
  if Array.length values <> tpl.n_params then
    invalid_arg "Program.bind: parameter count differs from the template's";
  let steps = Array.copy tpl.program.steps in
  for j = 0 to Array.length tpl.param_steps - 1 do
    let i = tpl.param_steps.(j) in
    steps.(i) <- { Step.op = tpl.rebuilds.(j) values; next = steps.(i).Step.next }
  done;
  { tpl.program with steps }
