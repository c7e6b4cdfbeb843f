(* R-MAT recursive-matrix graph generator (Chakrabarti et al.).

   Stands in for the SNAP LiveJournal and Friendster graphs used in the
   paper's scalability study: with skewed quadrant probabilities it yields
   the power-law degree distribution and community structure that drive
   frontier growth in multi-hop traversals. *)

type params = {
  scale : int; (* n_vertices = 2^scale *)
  edge_factor : int; (* edges = edge_factor * n_vertices *)
  a : float; (* quadrant probabilities; a + b + c + d = 1 *)
  b : float;
  c : float;
  dedup : bool; (* drop duplicate edges and self-loops *)
}

let default = { scale = 14; edge_factor = 16; a = 0.57; b = 0.19; c = 0.19; dedup = true }

let n_vertices params = 1 lsl params.scale

(* One directed edge endpoint pair via recursive quadrant descent with the
   customary +-10% noise to avoid exact self-similarity artifacts. *)
let sample_edge params prng =
  let src = ref 0 and dst = ref 0 in
  for _level = 1 to params.scale do
    (* Four noise draws in a fixed order: a, b, c, then d. *)
    let a = params.a *. (0.9 +. Prng.float prng 0.2) in
    let b = params.b *. (0.9 +. Prng.float prng 0.2) in
    let c = params.c *. (0.9 +. Prng.float prng 0.2) in
    let d = (1.0 -. params.a -. params.b -. params.c) *. (0.9 +. Prng.float prng 0.2) in
    let total = a +. b +. c +. d in
    let u = Prng.float prng total in
    src := !src lsl 1;
    dst := !dst lsl 1;
    if u < a then ()
    else if u < a +. b then dst := !dst lor 1
    else if u < a +. b +. c then src := !src lor 1
    else begin
      src := !src lor 1;
      dst := !dst lor 1
    end
  done;
  (!src, !dst)

let generate ?(params = default) prng =
  let n = n_vertices params in
  let target = params.edge_factor * n in
  let edges = Vec.create ~dummy:(0, 0) in
  let seen = if params.dedup then Some (Hashtbl.create (2 * target)) else None in
  let attempts = ref 0 in
  (* Cap attempts so extremely skewed parameter choices still terminate. *)
  let max_attempts = 4 * target in
  while Vec.length edges < target && !attempts < max_attempts do
    incr attempts;
    let src, dst = sample_edge params prng in
    let fresh =
      src <> dst
      &&
      match seen with
      | None -> true
      | Some table ->
        let key = (src * n) + dst in
        if Hashtbl.mem table key then false
        else begin
          Hashtbl.add table key ();
          true
        end
    in
    if fresh then Vec.push edges (src, dst)
  done;
  Vec.to_array edges

let graph ?(params = default) ?(vertex_label = "vertex") ?(edge_label = "link") prng =
  let edges = generate ~params prng in
  Builder.build (Builder.of_edges ~vertex_label ~edge_label ~n_vertices:(n_vertices params) edges)
