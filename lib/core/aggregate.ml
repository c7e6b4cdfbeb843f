(* Partial-aggregate state (§III-C).

   Aggregations with commutative, associative combine functions are
   partitionable: each worker folds its local traversers into a partial
   state held in the partition memo, and when the feeding subquery
   terminates the partials are combined at the coordinator. [accumulate],
   [merge] and [finalize] are exactly that lifecycle. *)

module Strtbl = Hashtbl.Make (String)

type t =
  | Count_st of { mutable n : int }
  | Sum_st of { mutable total : Value.t }
  | Max_st of { mutable best : Value.t }
  | Min_st of { mutable best : Value.t }
  | Topk_st of (Value.t, Value.t) Topk.t
  | Topk_ints_st of { key : int; acc : (int, int) Topk.t }
      (* a top-k of vertices by an integer property: see [ints_cmp] *)
  | Collect_st of { limit : int option; mutable items : Value.t list; mutable n : int }
  | Group_st of { counts : (Value.t, int) Hashtbl.t }
  | Group_strs_st of { key : int; counts : int Strtbl.t; mutable absent : int }
      (* a group count keyed by a string property: see [strs_key] *)

(* Descending score, ties broken by ascending output (the paper's k-hop
   example: "10 most weighted ... ties broken by vertex id"). *)
let topk_cmp s1 o1 s2 o2 =
  let c = Value.compare s1 s2 in
  if c <> 0 then c else Value.compare o2 o1

(* The typed top-k: [Topk { score = Prop key; output = Vertex_id }] over
   an [Ints] column, the shape of every top-k in the LDBC IC queries and
   the k-hop workloads. A pair sits in two int lanes, unboxed: the score
   lane holds the cell (0 when it is empty) and the output lane the
   vertex shifted left once, its low bit set when the cell is present.
   [ints_cmp] ranks them exactly as [topk_cmp] ranks the boxed pairs
   ([Null] or [Int n], [Vertex v]): an empty cell below every present
   one, then by score, ties by ascending vertex. *)
let ints_cmp s1 o1 s2 o2 =
  let c = Int.compare (o1 land 1) (o2 land 1) in
  if c <> 0 then c
  else
    let c = Int.compare s1 s2 in
    if c <> 0 then c else Int.compare o2 o1

let ints_key graph (agg : Step.agg) =
  match agg with
  | Topk { score = Prop key; output = Vertex_id; _ } when Graph.int_prop_column graph ~key -> key
  | _ -> -1

(* The typed group count: [Group_count (Prop key)] over a [Strs] column,
   the shape of every group count in the LDBC IC queries. A group is
   keyed by the cell's own string, so no [Value.Str] is boxed per
   traverser; empty cells, which the boxed state counts under [Null],
   are counted apart in [absent]. *)
let strs_key graph (agg : Step.agg) =
  match agg with
  | Group_count (Prop key) when Graph.str_prop_column graph ~key -> key
  | _ -> -1

let create graph (agg : Step.agg) =
  match agg with
  | Count -> Count_st { n = 0 }
  | Sum _ -> Sum_st { total = Value.Null }
  | Max _ -> Max_st { best = Value.Null }
  | Min _ -> Min_st { best = Value.Null }
  | Topk { k; _ } ->
    let key = ints_key graph agg in
    if key >= 0 then
      Topk_ints_st { key; acc = Topk.create ~k ~cmp:ints_cmp ~dummy_score:0 ~dummy_output:0 }
    else Topk_st (Topk.create ~k ~cmp:topk_cmp ~dummy_score:Value.Null ~dummy_output:Value.Null)
  | Collect { limit; _ } -> Collect_st { limit; items = []; n = 0 }
  | Group_count _ ->
    let key = strs_key graph agg in
    if key >= 0 then Group_strs_st { key; counts = Strtbl.create 16; absent = 0 }
    else Group_st { counts = Hashtbl.create 16 }

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
  | Topk _, Topk_ints_st { key; acc } -> (
    match Graph.vertex_int_prop graph ~key vertex with
    | n -> Topk.add acc n ((vertex lsl 1) lor 1)
    | exception Not_found -> Topk.add acc 0 (vertex lsl 1))
  | Collect { expr; limit }, Collect_st st ->
    let keep = match limit with None -> true | Some l -> st.n < l in
    if keep then begin
      st.items <- Step.eval_expr graph ~vertex ~regs expr :: st.items;
      st.n <- st.n + 1
    end
  | Group_count e, Group_st st -> (
    (* [Hashtbl.find], not [find_opt]: a hit allocates no option. *)
    let key = Step.eval_expr graph ~vertex ~regs e in
    match Hashtbl.find st.counts key with
    | n -> Hashtbl.replace st.counts key (n + 1)
    | exception Not_found -> Hashtbl.add st.counts key 1)
  | Group_count _, Group_strs_st st -> (
    match Graph.vertex_str_prop graph ~key:st.key vertex with
    | s -> (
      match Strtbl.find st.counts s with
      | n -> Strtbl.replace st.counts s (n + 1)
      | exception Not_found -> Strtbl.add st.counts s 1)
    | exception Not_found -> st.absent <- st.absent + 1)
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
  | Topk_ints_st a, Topk_ints_st b -> Topk.merge ~into:a.acc b.acc
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
  | Group_strs_st a, Group_strs_st b ->
    (* det-ok: per-key counter addition is commutative across merge order *)
    Strtbl.iter
      (fun s n ->
        match Strtbl.find a.counts s with
        | m -> Strtbl.replace a.counts s (m + n)
        | exception Not_found -> Strtbl.add a.counts s n)
      b.counts;
    a.absent <- a.absent + b.absent
  | _ -> invalid_arg "Aggregate.merge: mismatched partial states"

(* A state built by [create graph agg] for an [agg] of this shape: same
   kind, same k, same collect limit, and for a top-k or a group count
   the same state, typed on the same column or boxed. No other part of an expression
   matters; the state holds none. *)
let fits graph (agg : Step.agg) t =
  match agg, t with
  | Count, Count_st _ | Sum _, Sum_st _ | Max _, Max_st _ | Min _, Min_st _ -> true
  | Topk { k; _ }, Topk_st acc -> Topk.k acc = k && ints_key graph agg < 0
  | Topk { k; _ }, Topk_ints_st st -> Topk.k st.acc = k && ints_key graph agg = st.key
  | Collect { limit; _ }, Collect_st st -> Option.equal Int.equal limit st.limit
  | Group_count _, Group_st _ -> strs_key graph agg < 0
  | Group_count _, Group_strs_st st -> strs_key graph agg = st.key
  | _ -> false

(* Empty [t] as [create] left it, keeping its storage. *)
let reset = function
  | Count_st st -> st.n <- 0
  | Sum_st st -> st.total <- Value.Null
  | Max_st st -> st.best <- Value.Null
  | Min_st st -> st.best <- Value.Null
  | Topk_st acc -> Topk.reset acc
  | Topk_ints_st st -> Topk.reset st.acc
  | Collect_st st ->
    st.items <- [];
    st.n <- 0
  | Group_st st -> Hashtbl.reset st.counts
  | Group_strs_st st ->
    Strtbl.reset st.counts;
    st.absent <- 0

let finalize = function
  | Count_st st -> Value.Int st.n
  | Sum_st st -> (match st.total with Value.Null -> Value.Int 0 | v -> v)
  | Max_st st -> st.best
  | Min_st st -> st.best
  | Topk_st acc -> Value.List (List.map snd (Topk.to_sorted_list acc))
  | Topk_ints_st st ->
    Value.List (List.map (fun (_, o) -> Value.Vertex (o lsr 1)) (Topk.to_sorted_list st.acc))
  | Collect_st st -> Value.List (List.rev st.items)
  | Group_st st ->
    (* det-ok: pairs sorted by Value.compare on the next line *)
    let pairs = Hashtbl.fold (fun k n acc -> (k, n) :: acc) st.counts [] in
    let pairs = List.sort (fun (a, _) (b, _) -> Value.compare a b) pairs in
    Value.List (List.map (fun (k, n) -> Value.List [ k; Value.Int n ]) pairs)
  | Group_strs_st st ->
    (* [Null] sorts before every [Str], and [Str]s compare as strings. *)
    (* det-ok: pairs sorted by String.compare on the next line *)
    let pairs = Strtbl.fold (fun s n acc -> (s, n) :: acc) st.counts [] in
    let pairs = List.sort (fun (a, _) (b, _) -> String.compare a b) pairs in
    let groups = List.map (fun (s, n) -> Value.List [ Value.Str s; Value.Int n ]) pairs in
    if st.absent > 0 then Value.List (Value.List [ Value.Null; Value.Int st.absent ] :: groups)
    else Value.List groups

(* Serialized size of a partial state: charged when partials travel to the
   coordinator for the final combine. *)
let bytes = function
  | Count_st _ -> 8
  | Sum_st st -> Value.bytes st.total
  | Max_st st -> Value.bytes st.best
  | Min_st st -> Value.bytes st.best
  | Topk_st acc -> Topk.fold (fun n s o -> n + Value.bytes s + Value.bytes o) 8 acc
  | Topk_ints_st st ->
    (* [Value.bytes] of [Int _] or [Null], then of [Vertex _]. *)
    Topk.fold (fun n _ o -> n + (if o land 1 = 1 then 8 else 1) + 8) 8 st.acc
  | Collect_st st -> List.fold_left (fun acc v -> acc + Value.bytes v) 8 st.items
  | Group_st st ->
    (* det-ok: commutative sum over entries *)
    Hashtbl.fold (fun k _ acc -> acc + Value.bytes k + 8) st.counts 8
  | Group_strs_st st ->
    (* [Value.bytes] of [Str s] (8 plus its length) or of [Null] (1),
       then 8 for the count. *)
    (* det-ok: commutative sum over entries *)
    Strtbl.fold
      (fun s _ acc -> acc + 8 + String.length s + 8)
      st.counts
      (if st.absent > 0 then 8 + 1 + 8 else 8)
