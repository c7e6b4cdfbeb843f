(* Partial-aggregate state (§III-C).

   Aggregations with commutative, associative combine functions are
   partitionable: each worker folds its local traversers into a partial
   state held in the partition memo, and when the feeding subquery
   terminates the partials are combined at the coordinator. [accumulate],
   [merge] and [finalize] are exactly that lifecycle. *)

type t =
  | Count_st of { mutable n : int }
  | Sum_st of { mutable total : Value.t }
  | Max_st of { mutable best : Value.t }
  | Min_st of { mutable best : Value.t }
  | Topk_st of (Value.t, Value.t) Topk.t
  | Collect_st of { limit : int option; mutable items : Value.t list; mutable n : int }
  | Group_st of { counts : (Value.t, int) Hashtbl.t }

(* Descending score, ties broken by ascending output (the paper's k-hop
   example: "10 most weighted ... ties broken by vertex id"). *)
let topk_cmp s1 o1 s2 o2 =
  let c = Value.compare s1 s2 in
  if c <> 0 then c else Value.compare o2 o1

let create (agg : Step.agg) =
  match agg with
  | Count -> Count_st { n = 0 }
  | Sum _ -> Sum_st { total = Value.Null }
  | Max _ -> Max_st { best = Value.Null }
  | Min _ -> Min_st { best = Value.Null }
  | Topk { k; _ } ->
    Topk_st (Topk.create ~k ~cmp:topk_cmp ~dummy_score:Value.Null ~dummy_output:Value.Null)
  | Collect { limit; _ } -> Collect_st { limit; items = []; n = 0 }
  | Group_count _ -> Group_st { counts = Hashtbl.create 16 }

(* Fold one traverser into the partial state. The expressions of [agg]
   are evaluated in the traverser's context, each by a direct
   [Step.eval_expr] call: a local [eval] closure over the context would
   be allocated on every call. *)
let accumulate (agg : Step.agg) t graph ~vertex ~regs =
  match agg, t with
  | Count, Count_st st -> st.n <- st.n + 1
  | Sum e, Sum_st st -> st.total <- Value.add st.total (Step.eval_expr graph ~vertex ~regs e)
  | Max e, Max_st st ->
    let v = Step.eval_expr graph ~vertex ~regs e in
    if Value.is_null st.best || Value.compare v st.best > 0 then st.best <- v
  | Min e, Min_st st ->
    let v = Step.eval_expr graph ~vertex ~regs e in
    if Value.is_null st.best || Value.compare v st.best < 0 then st.best <- v
  | Topk { score; output; _ }, Topk_st acc ->
    (* The output is evaluated only if [Topk.add] may keep the pair:
       [topk_cmp] compares scores first, so against a full heap a score
       below the worst kept one loses whatever its output. *)
    let s = Step.eval_expr graph ~vertex ~regs score in
    if
      (not (Topk.is_full acc))
      || (Topk.k acc > 0 && Value.compare s (Topk.worst_score acc) >= 0)
    then Topk.add acc s (Step.eval_expr graph ~vertex ~regs output)
  | Collect { expr; limit }, Collect_st st ->
    let keep = match limit with None -> true | Some l -> st.n < l in
    if keep then begin
      st.items <- Step.eval_expr graph ~vertex ~regs expr :: st.items;
      st.n <- st.n + 1
    end
  | Group_count e, Group_st st ->
    let key = Step.eval_expr graph ~vertex ~regs e in
    let n = Option.value ~default:0 (Hashtbl.find_opt st.counts key) in
    Hashtbl.replace st.counts key (n + 1)
  | _ -> invalid_arg "Aggregate.accumulate: state does not match aggregation"

let merge ~into t =
  match into, t with
  | Count_st a, Count_st b -> a.n <- a.n + b.n
  | Sum_st a, Sum_st b -> a.total <- Value.add a.total b.total
  | Max_st a, Max_st b ->
    if (not (Value.is_null b.best)) && (Value.is_null a.best || Value.compare b.best a.best > 0)
    then a.best <- b.best
  | Min_st a, Min_st b ->
    if (not (Value.is_null b.best)) && (Value.is_null a.best || Value.compare b.best a.best < 0)
    then a.best <- b.best
  | Topk_st a, Topk_st b -> Topk.merge ~into:a b
  | Collect_st a, Collect_st b ->
    let keep = match a.limit with None -> max_int | Some l -> max 0 (l - a.n) in
    let taken = List.filteri (fun i _ -> i < keep) (List.rev b.items) in
    a.items <- List.rev_append taken a.items;
    a.n <- a.n + List.length taken
  | Group_st a, Group_st b ->
    (* [finalize] sorts the groups with Value.compare before emitting, so
       iteration order here is unobservable. *)
    (* det-ok: per-key counter addition is commutative across merge order *)
    Hashtbl.iter
      (fun key n ->
        let m = Option.value ~default:0 (Hashtbl.find_opt a.counts key) in
        Hashtbl.replace a.counts key (m + n))
      b.counts
  | _ -> invalid_arg "Aggregate.merge: mismatched partial states"

(* A state built by [create agg] for an [agg] of this shape: same kind,
   same k, same collect limit. The expressions do not matter; the state
   holds none. *)
let fits (agg : Step.agg) t =
  match agg, t with
  | Count, Count_st _ | Sum _, Sum_st _ | Max _, Max_st _ | Min _, Min_st _ -> true
  | Topk { k; _ }, Topk_st acc -> Topk.k acc = k
  | Collect { limit; _ }, Collect_st st -> Option.equal Int.equal limit st.limit
  | Group_count _, Group_st _ -> true
  | _ -> false

(* Empty [t] as [create] left it, keeping its storage. *)
let reset = function
  | Count_st st -> st.n <- 0
  | Sum_st st -> st.total <- Value.Null
  | Max_st st -> st.best <- Value.Null
  | Min_st st -> st.best <- Value.Null
  | Topk_st acc -> Topk.reset acc
  | Collect_st st ->
    st.items <- [];
    st.n <- 0
  | Group_st st -> Hashtbl.reset st.counts

let finalize = function
  | Count_st st -> Value.Int st.n
  | Sum_st st -> (match st.total with Value.Null -> Value.Int 0 | v -> v)
  | Max_st st -> st.best
  | Min_st st -> st.best
  | Topk_st acc -> Value.List (List.map snd (Topk.to_sorted_list acc))
  | Collect_st st -> Value.List (List.rev st.items)
  | Group_st st ->
    (* det-ok: pairs sorted by Value.compare on the next line *)
    let pairs = Hashtbl.fold (fun k n acc -> (k, n) :: acc) st.counts [] in
    let pairs = List.sort (fun (a, _) (b, _) -> Value.compare a b) pairs in
    Value.List (List.map (fun (k, n) -> Value.List [ k; Value.Int n ]) pairs)

(* Serialized size of a partial state: charged when partials travel to the
   coordinator for the final combine. *)
let bytes = function
  | Count_st _ -> 8
  | Sum_st st -> Value.bytes st.total
  | Max_st st -> Value.bytes st.best
  | Min_st st -> Value.bytes st.best
  | Topk_st acc -> Topk.fold (fun n s o -> n + Value.bytes s + Value.bytes o) 8 acc
  | Collect_st st -> List.fold_left (fun acc v -> acc + Value.bytes v) 8 st.items
  | Group_st st ->
    (* det-ok: commutative sum over entries *)
    Hashtbl.fold (fun k _ acc -> acc + Value.bytes k + 8) st.counts 8
