(* Query-aware partition refinement (Loom-style greedy label propagation).

   Input: the current owner table and a profile of cross-partition
   traversal traffic — weighted (u, v) edges counting how often a
   traverser hopped between the two vertices' partitions during real
   query execution. Output: a list of vertex moves that greedily reduces
   the profiled cut weight (traffic whose endpoints live in different
   partitions) under a per-partition size cap.

   The pass visits the profiled vertices hottest-first; each vertex is
   pulled toward the partition its profiled neighbors exchange the most
   weight with, exactly the label-propagation heuristic of streaming
   repartitioners (Loom, Fennel): cheap, deterministic, and effective on
   the skewed traffic that skewed graphs + skewed workloads produce.
   Multiple passes run until a pass stops improving (or limits hit).

   Everything here is pure table manipulation. [refine_profile] is the
   one entry point for a profiled run: the engine applies its moves
   through its migration protocol, the CLI and benches install its table
   and report its stats. *)

type move = {
  vertex : int;
  src : int; (* owner before refinement *)
  dst : int; (* proposed owner *)
}

type stats = {
  cut_before : int; (* profiled weight crossing partitions, before *)
  cut_after : int;
  total_weight : int; (* total profiled weight (cut + internal) *)
  moves : int;
  imbalance_before : float; (* max/mean over the full vertex set *)
  imbalance_after : float;
  passes : int;
}

(* Max-over-mean of explicit per-partition counts. *)
let imbalance_of ~n_vertices sizes =
  let n_parts = Array.length sizes in
  if n_vertices = 0 || n_parts > n_vertices then 1.0
  else
    float_of_int (Array.fold_left max 0 sizes * n_parts) /. float_of_int n_vertices

let cut_weight ~assignment edges =
  Array.fold_left
    (fun acc (u, v, w) -> if assignment.(u) <> assignment.(v) then acc + w else acc)
    0 edges

let refine ?(max_imbalance = 1.1) ?max_heat_imbalance ?(max_passes = 8) ?(max_moves = max_int)
    ~n_parts ~(assignment : int array) (edges : (int * int * int) array) =
  let n_vertices = Array.length assignment in
  Array.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n_vertices || v < 0 || v >= n_vertices then
        invalid_arg "Repartition.refine: profile edge endpoint out of range";
      if w < 0 then invalid_arg "Repartition.refine: negative profile weight")
    edges;
  let before = Array.copy assignment in
  let owner = Array.copy assignment in
  let sizes = Array.make n_parts 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) owner;
  (* Size cap: the imbalance bound, but never below what perfect balance
     itself requires (ceil n/parts), or nothing could ever move. *)
  let cap =
    max
      ((n_vertices + n_parts - 1) / n_parts)
      (int_of_float (max_imbalance *. float_of_int n_vertices /. float_of_int n_parts))
  in
  (* Adjacency over the profile (symmetrized: traffic hurts whichever
     side is remote), CSR-packed for cache-friendly passes. *)
  let deg = Array.make n_vertices 0 in
  Array.iter
    (fun (u, v, _) ->
      if u <> v then begin
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end)
    edges;
  let offsets = Array.make (n_vertices + 1) 0 in
  for v = 0 to n_vertices - 1 do
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  let nbr = Array.make (max 1 offsets.(n_vertices)) 0 in
  let nbr_w = Array.make (max 1 offsets.(n_vertices)) 0 in
  let fill = Array.copy offsets in
  Array.iter
    (fun (u, v, w) ->
      if u <> v then begin
        nbr.(fill.(u)) <- v;
        nbr_w.(fill.(u)) <- w;
        fill.(u) <- fill.(u) + 1;
        nbr.(fill.(v)) <- u;
        nbr_w.(fill.(v)) <- w;
        fill.(v) <- fill.(v) + 1
      end)
    edges;
  (* Hottest-first visiting order over the vertices the profile touched. *)
  let heat = Array.make n_vertices 0 in
  for v = 0 to n_vertices - 1 do
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      heat.(v) <- heat.(v) + nbr_w.(i)
    done
  done;
  (* Optional heat cap: bounds the profiled traffic a partition may
     accumulate, so co-locating hot communities cannot serialize the
     workload onto a few workers (the communication/parallelism
     trade-off of any locality-maximizing partitioner). *)
  let total_heat = Array.fold_left ( + ) 0 heat in
  let heat_cap =
    match max_heat_imbalance with
    | None -> max_int
    | Some f -> int_of_float (f *. float_of_int total_heat /. float_of_int n_parts)
  in
  let part_heat = Array.make n_parts 0 in
  for v = 0 to n_vertices - 1 do
    part_heat.(owner.(v)) <- part_heat.(owner.(v)) + heat.(v)
  done;
  let touched =
    Array.of_seq
      (Seq.filter (fun v -> heat.(v) > 0) (Seq.init n_vertices Fun.id))
  in
  Array.sort
    (fun a b -> match Int.compare heat.(b) heat.(a) with 0 -> Int.compare a b | c -> c)
    touched;
  (* Per-partition weight scratchpad, reset per vertex via a dirty list. *)
  let part_w = Array.make n_parts 0 in
  let dirty = Array.make n_parts 0 in
  let moved = ref 0 in
  let passes = ref 0 in
  let continue = ref (Array.length touched > 0 && max_moves > 0) in
  while !continue && !passes < max_passes do
    incr passes;
    let pass_gain = ref 0 in
    Array.iter
      (fun v ->
        if !moved < max_moves then begin
          let n_dirty = ref 0 in
          for i = offsets.(v) to offsets.(v + 1) - 1 do
            let p = owner.(nbr.(i)) in
            if part_w.(p) = 0 then begin
              dirty.(!n_dirty) <- p;
              incr n_dirty
            end;
            part_w.(p) <- part_w.(p) + nbr_w.(i)
          done;
          let cur = owner.(v) in
          let here = part_w.(cur) in
          (* Best candidate: most profiled weight, room under the cap;
             ties break toward the smallest partition id. *)
          let best = ref cur in
          let best_w = ref here in
          for i = 0 to !n_dirty - 1 do
            let p = dirty.(i) in
            if
              (part_w.(p) > !best_w || (part_w.(p) = !best_w && p < !best))
              && (p = cur || (sizes.(p) < cap && part_heat.(p) + heat.(v) <= heat_cap))
            then begin
              best := p;
              best_w := part_w.(p)
            end
          done;
          if !best <> cur && !best_w > here then begin
            owner.(v) <- !best;
            sizes.(cur) <- sizes.(cur) - 1;
            sizes.(!best) <- sizes.(!best) + 1;
            part_heat.(cur) <- part_heat.(cur) - heat.(v);
            part_heat.(!best) <- part_heat.(!best) + heat.(v);
            pass_gain := !pass_gain + (!best_w - here);
            (* Net moved vertices: a vertex returning home in a later
               pass un-counts itself. *)
            if cur = before.(v) then incr moved
            else if !best = before.(v) then decr moved
          end;
          for i = 0 to !n_dirty - 1 do
            part_w.(dirty.(i)) <- 0
          done
        end)
      touched;
    if !pass_gain = 0 || !moved >= max_moves then continue := false
  done;
  let moves = ref [] in
  for v = n_vertices - 1 downto 0 do
    if owner.(v) <> before.(v) then moves := { vertex = v; src = before.(v); dst = owner.(v) } :: !moves
  done;
  let sizes_before = Array.make n_parts 0 in
  Array.iter (fun p -> sizes_before.(p) <- sizes_before.(p) + 1) before;
  let total_weight = Array.fold_left (fun acc (_, _, w) -> acc + w) 0 edges in
  ( !moves,
    {
      cut_before = cut_weight ~assignment:before edges;
      cut_after = cut_weight ~assignment:owner edges;
      total_weight;
      moves = List.length !moves;
      imbalance_before = imbalance_of ~n_vertices sizes_before;
      imbalance_after = imbalance_of ~n_vertices sizes;
      passes = !passes;
    } )

type refinement = { table : int array; moved : move list; stats : stats }

let refine_profile ?max_imbalance ?max_heat_imbalance ?max_moves partition profile =
  let table = Partition.to_assignment partition in
  let moved, stats =
    refine ?max_imbalance ?max_heat_imbalance ?max_moves ~n_parts:(Partition.n_parts partition)
      ~assignment:table
      (Array.map (fun (u, v, _count, bytes) -> (u, v, bytes)) profile)
  in
  List.iter (fun m -> table.(m.vertex) <- m.dst) moved;
  { table; moved; stats }
