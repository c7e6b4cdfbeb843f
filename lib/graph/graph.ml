(* The assembled property graph G = (V, E, lambda).

   Immutable after construction (updates are priced by a cost model, not
   applied; see [Pstm_ldbc.Updates]). Both traversal directions are
   materialized as CSR structures sharing global edge ids, so edge
   properties are reachable either way. A registry of hash indexes backs
   the IndexLookup step. *)

type direction =
  | Out
  | In
  | Both

let pp_direction ppf = function
  | Out -> Fmt.string ppf "out"
  | In -> Fmt.string ppf "in"
  | Both -> Fmt.string ppf "both"

type t = {
  schema : Schema.t;
  n_vertices : int;
  vertex_label : int array;
  out_csr : Csr.t;
  in_csr : Csr.t;
  vertex_props : Props.t;
  edge_props : Props.t;
  edge_src : int array; (* endpoints by global edge id: the _src key *)
  edge_dst : int array; (* and the _dest key of the paper's model *)
  edge_label_by_id : int array;
  indexes : (int option * int, (Value.t, int Vec.t) Hashtbl.t) Hashtbl.t;
  mutable label_stats : (int, label_stats) Hashtbl.t option; (* built on first use *)
}

and label_stats = {
  count : int;
  distinct_sources : int;
  distinct_targets : int;
}

let schema t = t.schema
let n_vertices t = t.n_vertices
let n_edges t = Array.length t.edge_src

let check_vertex t v =
  if v < 0 || v >= t.n_vertices then invalid_arg "Graph: vertex out of range"

let vertex_label t v =
  check_vertex t v;
  t.vertex_label.(v)

let has_vertex_label t ~label v = vertex_label t v = label

let edge_src t e = t.edge_src.(e)
let edge_dst t e = t.edge_dst.(e)
let edge_label t e = t.edge_label_by_id.(e)

let out_degree t v =
  check_vertex t v;
  Csr.degree t.out_csr v

let in_degree t v =
  check_vertex t v;
  Csr.degree t.in_csr v

let degree t ~dir v =
  match dir with
  | Out -> out_degree t v
  | In -> in_degree t v
  | Both -> out_degree t v + in_degree t v

let iter_adjacent t ~dir ?label v f =
  check_vertex t v;
  match dir with
  | Out -> Csr.iter_neighbors t.out_csr ?label v f
  | In -> Csr.iter_neighbors t.in_csr ?label v f
  | Both ->
    Csr.iter_neighbors t.out_csr ?label v f;
    Csr.iter_neighbors t.in_csr ?label v f

let out_csr t = t.out_csr
let in_csr t = t.in_csr

let adjacent t ~dir ?label v =
  let out = Vec.create ~dummy:0 in
  iter_adjacent t ~dir ?label v (fun ~target ~edge_id:_ ~label:_ -> Vec.push out target);
  Vec.to_array out

let vertex_prop t ~key v =
  check_vertex t v;
  Props.get t.vertex_props ~key v

let compare_vertex_prop t ~key v c =
  check_vertex t v;
  Props.compare_to t.vertex_props ~key v c

let int_prop_column t ~key = Props.is_ints t.vertex_props ~key

let vertex_int_prop t ~key v =
  check_vertex t v;
  Props.int_cell t.vertex_props ~key v

let str_prop_column t ~key = Props.is_strs t.vertex_props ~key

let vertex_str_prop t ~key v =
  check_vertex t v;
  Props.str_cell t.vertex_props ~key v

let vertex_prop_by_name t ~key v =
  match Schema.property_key_opt t.schema key with
  | None -> Value.Null
  | Some k -> vertex_prop t ~key:k v

let edge_prop t ~key e = Props.get t.edge_props ~key e

let iter_vertices t f =
  for v = 0 to t.n_vertices - 1 do
    f v
  done

let iter_vertices_with_label t label f =
  for v = 0 to t.n_vertices - 1 do
    if t.vertex_label.(v) = label then f v
  done

(* Average out-degree restricted to an edge label; the cost-based join
   planner uses it to estimate expansion cardinalities. *)
let avg_degree t ~dir ?label () =
  if t.n_vertices = 0 then 0.0
  else begin
    match label with
    | None -> float_of_int (n_edges t) /. float_of_int t.n_vertices
    | Some l ->
      let count = ref 0 in
      Array.iter (fun el -> if el = l then incr count) t.edge_label_by_id;
      ignore dir;
      float_of_int !count /. float_of_int t.n_vertices
  end

(* Per-edge-label degree statistics, computed on first use and kept with
   the graph they describe. *)
let build_label_stats t =
  let sources = Hashtbl.create 64 and targets = Hashtbl.create 64 in
  let counts = Hashtbl.create 64 in
  let dsrc = Hashtbl.create 16 and dtgt = Hashtbl.create 16 in
  let bump table l = Hashtbl.replace table l (1 + Option.value ~default:0 (Hashtbl.find_opt table l)) in
  for e = 0 to n_edges t - 1 do
    let l = t.edge_label_by_id.(e) in
    bump counts l;
    let src = (l, t.edge_src.(e)) in
    if not (Hashtbl.mem sources src) then begin
      Hashtbl.replace sources src ();
      bump dsrc l
    end;
    let dst = (l, t.edge_dst.(e)) in
    if not (Hashtbl.mem targets dst) then begin
      Hashtbl.replace targets dst ();
      bump dtgt l
    end
  done;
  let stats = Hashtbl.create 16 in
  let labels =
    (* det-ok: labels sorted before use, so stats build in a fixed order *)
    List.sort Int.compare (Hashtbl.fold (fun l _ acc -> l :: acc) counts [])
  in
  List.iter
    (fun l ->
      Hashtbl.replace stats l
        {
          count = Option.value ~default:0 (Hashtbl.find_opt counts l);
          distinct_sources = max 1 (Option.value ~default:0 (Hashtbl.find_opt dsrc l));
          distinct_targets = max 1 (Option.value ~default:0 (Hashtbl.find_opt dtgt l));
        })
    labels;
  stats

let label_stats t =
  match t.label_stats with
  | Some stats -> stats
  | None ->
    let stats = build_label_stats t in
    t.label_stats <- Some stats;
    stats

(* --- Index registry (backs the IndexLookup traversal strategy) --- *)

let ensure_index t ?vertex_label:vl ~key () =
  let id = (vl, key) in
  match Hashtbl.find_opt t.indexes id with
  | Some idx -> idx
  | None ->
    let idx = Hashtbl.create 1024 in
    let consider v =
      let value = Props.get t.vertex_props ~key v in
      if not (Value.is_null value) then begin
        let bucket =
          match Hashtbl.find_opt idx value with
          | Some b -> b
          | None ->
            let b = Vec.create ~dummy:0 in
            Hashtbl.add idx value b;
            b
        in
        Vec.push bucket v
      end
    in
    (match vl with
    | None -> iter_vertices t consider
    | Some l -> iter_vertices_with_label t l consider);
    Hashtbl.add t.indexes id idx;
    idx

let index_lookup t ?vertex_label:vl ~key value =
  let idx = ensure_index t ?vertex_label:vl ~key () in
  match Hashtbl.find_opt idx value with
  | None -> [||]
  | Some bucket -> Vec.to_array bucket

(* --- Size accounting for Table II --- *)

let bytes t =
  Csr.bytes t.out_csr + Csr.bytes t.in_csr + Props.bytes t.vertex_props
  + Props.bytes t.edge_props
  + (8 * (t.n_vertices + (3 * n_edges t)))

let make ~schema ~n_vertices ~vertex_label ~out_csr ~in_csr ~vertex_props ~edge_props
    ~edge_src ~edge_dst ~edge_label_by_id =
  {
    schema;
    n_vertices;
    vertex_label;
    out_csr;
    in_csr;
    vertex_props;
    edge_props;
    edge_src;
    edge_dst;
    edge_label_by_id;
    indexes = Hashtbl.create 8;
    label_stats = None;
  }
