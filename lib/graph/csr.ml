(* Compressed sparse row adjacency.

   One instance per direction: the out-CSR is built in edge-id order, so
   its [edge_ids] are the identity; the in-CSR is a permutation of the same
   edges and stores the original edge id at each position so that edge
   properties (keyed by edge id) remain reachable when traversing inward. *)

type t = {
  offsets : int array; (* length n_vertices + 1 *)
  targets : int array; (* neighbor vertex at each position *)
  labels : int array; (* edge label at each position *)
  edge_ids : int array; (* global edge id at each position *)
}

let n_vertices t = Array.length t.offsets - 1
let n_edges t = Array.length t.targets

let degree t v = t.offsets.(v + 1) - t.offsets.(v)

(* [v]'s adjacency slice is [offset v, offset (v + 1)). Batch scans
   iterate it directly through the [*_at] accessors, so a frontier sweep
   costs no per-edge closure and no pair. *)
let offset t v = t.offsets.(v)
let target_at t pos = t.targets.(pos)
let label_at t pos = t.labels.(pos)

let iter_neighbors t ?label v f =
  let lo = t.offsets.(v) and hi = t.offsets.(v + 1) in
  match label with
  | None ->
    for pos = lo to hi - 1 do
      f ~target:t.targets.(pos) ~edge_id:t.edge_ids.(pos) ~label:t.labels.(pos)
    done
  | Some l ->
    for pos = lo to hi - 1 do
      if t.labels.(pos) = l then
        f ~target:t.targets.(pos) ~edge_id:t.edge_ids.(pos) ~label:l
    done

let neighbors t ?label v =
  let out = Vec.create ~dummy:0 in
  iter_neighbors t ?label v (fun ~target ~edge_id:_ ~label:_ -> Vec.push out target);
  Vec.to_array out

let degree_with_label t label v =
  let n = ref 0 in
  for pos = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    if t.labels.(pos) = label then incr n
  done;
  !n

(* Build from parallel edge arrays. [edge_ids] gives the global id of each
   input edge; counting sort by source keeps construction linear. *)
let build ~n_vertices ~sources ~targets ~labels ~edge_ids =
  let m = Array.length sources in
  if Array.length targets <> m || Array.length labels <> m || Array.length edge_ids <> m then
    invalid_arg "Csr.build: array length mismatch";
  let offsets = Array.make (n_vertices + 1) 0 in
  for i = 0 to m - 1 do
    let s = sources.(i) in
    if s < 0 || s >= n_vertices then invalid_arg "Csr.build: source out of range";
    offsets.(s + 1) <- offsets.(s + 1) + 1
  done;
  for v = 1 to n_vertices do
    offsets.(v) <- offsets.(v) + offsets.(v - 1)
  done;
  let cursor = Array.copy offsets in
  let out_targets = Array.make m 0 in
  let out_labels = Array.make m 0 in
  let out_edge_ids = Array.make m 0 in
  for i = 0 to m - 1 do
    let s = sources.(i) in
    let pos = cursor.(s) in
    cursor.(s) <- pos + 1;
    out_targets.(pos) <- targets.(i);
    out_labels.(pos) <- labels.(i);
    out_edge_ids.(pos) <- edge_ids.(i)
  done;
  { offsets; targets = out_targets; labels = out_labels; edge_ids = out_edge_ids }

(* Memory footprint estimate, reported in the Table II "raw size" column. *)
let bytes t =
  8 * (Array.length t.offsets + (3 * Array.length t.targets))
