(* Graph partitioning function H : V -> PartId (§II-C of the paper).

   One partition per worker; the PSTM engines route every traverser to the
   worker owning its current vertex. Hash partitioning is the paper's
   choice; block partitioning is kept as an ablation (it concentrates BFS
   frontiers on few workers and exposes the straggler effect even more).

   [Adaptive] keeps an explicit per-vertex assignment table (seeded from
   the same hash) that the engine may rewrite at runtime: the adaptive
   repartitioner moves vertices toward the partitions they exchange the
   most traversal traffic with (Loom-style), so H becomes a function of
   the observed workload instead of the vertex id alone. [Table] is a
   fixed explicit table, e.g. a refinement computed offline. *)

type strategy =
  | Hash (* owner v = mix(v) mod n_parts; spreads hubs and frontiers *)
  | Mod (* owner v = v mod n_parts; kept as an ablation (hub clustering) *)
  | Block (* owner v = v / ceil(n/n_parts); contiguous ranges *)
  | Adaptive (* explicit assignment table, rewritable at runtime *)
  | Table of int array (* fixed explicit assignment table *)

type t = {
  strategy : strategy;
  n_parts : int;
  n_vertices : int;
  block_size : int;
  assignment : int array; (* per-vertex owner; only for Adaptive and Table *)
  sizes : int array; (* per-partition vertex count; only for Adaptive and Table *)
}

(* Fibonacci-style multiplicative mixer: cheap and avalanching enough to
   decouple hub ids (which generators place at small ids) from workers. *)
let mix v =
  let h = v * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land max_int

let create ?(strategy = Hash) ~n_parts ~n_vertices () =
  if n_parts <= 0 then invalid_arg "Partition.create: n_parts must be positive";
  if n_vertices < 0 then invalid_arg "Partition.create: negative n_vertices";
  let block_size = max 1 ((n_vertices + n_parts - 1) / n_parts) in
  let with_sizes assignment =
    let sizes = Array.make n_parts 0 in
    Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) assignment;
    (assignment, sizes)
  in
  let assignment, sizes =
    match strategy with
    | Hash | Mod | Block -> ([||], [||])
    | Adaptive -> with_sizes (Array.init n_vertices (fun v -> mix v mod n_parts))
    | Table a ->
      if Array.length a <> n_vertices then
        invalid_arg "Partition.create: table length must equal n_vertices";
      if not (Array.for_all (fun p -> p >= 0 && p < n_parts) a) then
        invalid_arg "Partition.create: table entry out of range";
      with_sizes (Array.copy a)
  in
  { strategy; n_parts; n_vertices; block_size; assignment; sizes }

let n_parts t = t.n_parts

let owner t v =
  match t.strategy with
  | Hash -> mix v mod t.n_parts
  | Mod -> v mod t.n_parts
  | Block -> min (t.n_parts - 1) (v / t.block_size)
  | Adaptive | Table _ -> t.assignment.(v)

(* Rewrite a vertex's owner (adaptive repartitioning only). Size counters
   track the move so [imbalance] stays O(n_parts). *)
let set_owner t v p =
  if t.strategy <> Adaptive then invalid_arg "Partition.set_owner: strategy is not Adaptive";
  if p < 0 || p >= t.n_parts then invalid_arg "Partition.set_owner: bad partition";
  let old = t.assignment.(v) in
  if old <> p then begin
    t.assignment.(v) <- p;
    t.sizes.(old) <- t.sizes.(old) - 1;
    t.sizes.(p) <- t.sizes.(p) + 1
  end

(* Current owner table as a plain array (a copy, safe to mutate). *)
let to_assignment t = Array.init t.n_vertices (owner t)

(* Vertices owned by partition [p], in ascending order. *)
let members t p =
  if p < 0 || p >= t.n_parts then invalid_arg "Partition.members: bad partition";
  let out = Vec.create ~dummy:0 in
  (match t.strategy with
  | Hash ->
    for v = 0 to t.n_vertices - 1 do
      if mix v mod t.n_parts = p then Vec.push out v
    done
  | Mod ->
    let v = ref p in
    while !v < t.n_vertices do
      Vec.push out !v;
      v := !v + t.n_parts
    done
  | Block ->
    let lo = p * t.block_size in
    let hi = min t.n_vertices ((p + 1) * t.block_size) in
    let hi = if p = t.n_parts - 1 then t.n_vertices else hi in
    for v = lo to hi - 1 do
      Vec.push out v
    done
  | Adaptive | Table _ ->
    for v = 0 to t.n_vertices - 1 do
      if t.assignment.(v) = p then Vec.push out v
    done);
  Vec.to_array out

let size_of t p =
  match t.strategy with
  | Adaptive | Table _ ->
    if p < 0 || p >= t.n_parts then invalid_arg "Partition.size_of: bad partition";
    t.sizes.(p)
  | Hash | Mod | Block -> Array.length (members t p)

(* Max-over-mean partition size: 1.0 is perfectly balanced. With no
   vertices — or more partitions than vertices, where the mean drops
   below one vertex — there is nothing meaningful to balance, so the
   ratio is defined as the perfect 1.0 instead of dividing by a
   (near-)zero mean. *)
let imbalance t =
  if t.n_vertices = 0 || t.n_parts > t.n_vertices then 1.0
  else begin
    let sizes = Array.init t.n_parts (size_of t) in
    let max_size = Array.fold_left max 0 sizes in
    float_of_int (max_size * t.n_parts) /. float_of_int t.n_vertices
  end
