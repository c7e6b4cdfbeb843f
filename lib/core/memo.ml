(* Query memoranda (§III-B): per-partition temporary key-value stores.

   One memo per partition; only the worker owning the partition touches
   it, so no synchronization is needed (that absence is precisely the
   benefit the partitioned model buys in Figure 8's non-partitioned
   ablation). Records are scoped to the creating query — keyed by query id
   first — and [clear_query] drops a query's whole footprint when it
   terminates, as the model prescribes.

   Keys within a query are (label, value) pairs, where the label is a
   compiler-chosen discriminator (the step index of a Visit, Dedup, Join
   side or Aggregate) and the value is an arbitrary property value.
   Entries hold either a scalar, a partitionable partial aggregate, or the
   row lists of a double-pipelined join side.

   Layout: each (query, label) owns one [store] with three typed parts.
   Vertex keys — nearly all of them: Visit distances, Dedup flags, most
   join buckets — live in an int-keyed open-addressing table (linear
   probing, [-1] marks an empty slot, backward-shift deletion), so a probe
   hashes one int and allocates nothing. The Null key, under which an
   Aggregate step keeps its partial, has a slot of its own. Every other
   key goes to a generic [Hashtbl.Make] table, created on first use.

   Lifecycle: a serving workload runs thousands of short queries, each
   touching many partitions, so the set-up and tear-down of a query's
   state must cost nothing at steady state. Live queries are found by qid
   in another int-keyed table (not a dense qid-indexed array: qids grow
   without bound, and each partition would pay a word for every query
   ever issued). Only writes create state, and only the store they write:
   the label slots of a query hold one shared, never-written [no_store]
   until then, and a read of an absent query or label allocates nothing.
   [clear_query] empties the query's stores and puts them, and the query
   record with its label array, on free lists that the next query's first
   writes draw from. A store's partial aggregate, with its [Partial]
   entry, goes to a free list of its own, emptied: [partial] takes one
   of the same shape from there before it builds a new one. *)

type entry =
  | Scalar of Value.t
  | Partial of Aggregate.t
  | Rows of Value.t array list

(* Marks an empty slot and a missing record; compared with [==] only. *)
let absent = Scalar (Value.Str "absent")

(* Dedup keeps presence only. *)
let seen = Scalar Value.Null

(* A Visit record: the distance itself sits unboxed in the vertex
   table's int lane, and the entry is built only when the record leaves
   the memo ({!extract_for_key}). Compared with [==] only. *)
let dist = Scalar (Value.Str "dist")

module Table = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* --- Int-keyed tables --- *)

(* Open addressing on non-negative int keys: a store's vertex keys and
   the memo's qid index. *)
type 'a itable = {
  mutable keys : int array; (* capacity 0 or a power of two; -1 marks an empty slot *)
  mutable vals : 'a array; (* [none] where [keys] holds -1 *)
  mutable ints : int array; (* an unboxed int beside each value: [dist]'s distance *)
  mutable size : int;
  mutable shift : int; (* 63 - log2 capacity: [home] keeps the top bits *)
  none : 'a;
}

let itable none = { keys = [||]; vals = [||]; ints = [||]; size = 0; shift = 63; none }

(* Multiplicative hashing on the top bits. Partitions split vertices by
   the low bits of a different mixer, so the ids one memo sees share
   those bits and must not decide the slot. *)
let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr t.shift

let rec probe keys mask k i =
  let k' = keys.(i) in
  if k' = k then i else if k' < 0 then -1 else probe keys mask k ((i + 1) land mask)

(* Slot of key [k], or -1. *)
let index t k = if t.size = 0 then -1 else probe t.keys (Array.length t.keys - 1) k (home t k)

let rec free_slot keys mask i = if keys.(i) < 0 then i else free_slot keys mask ((i + 1) land mask)

let place t k x n =
  let i = free_slot t.keys (Array.length t.keys - 1) (home t k) in
  t.keys.(i) <- k;
  t.vals.(i) <- x;
  t.ints.(i) <- n

let grow t =
  let keys = t.keys and vals = t.vals and ints = t.ints in
  let capacity = max 8 (2 * Array.length keys) in
  t.keys <- Array.make capacity (-1);
  t.vals <- Array.make capacity t.none;
  t.ints <- Array.make capacity 0;
  t.shift <- (if Array.length keys = 0 then 60 else t.shift - 1);
  Array.iteri (fun i k -> if k >= 0 then place t k vals.(i) ints.(i)) keys

(* Insert absent key [k], keeping the load at most 3/4. *)
let insert t k x n =
  if (t.size + 1) * 4 > Array.length t.keys * 3 then grow t;
  place t k x n;
  t.size <- t.size + 1

(* Empty slot [i], then walk its probe run and move back every key whose
   home does not lie cyclically after the hole, so no run has a gap. *)
let remove_at t i =
  let keys = t.keys and vals = t.vals and ints = t.ints in
  let mask = Array.length keys - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while keys.(!j) >= 0 do
    let k = keys.(!j) in
    if (!j - home t k) land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- k;
      vals.(!hole) <- vals.(!j);
      ints.(!hole) <- ints.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- -1;
  vals.(!hole) <- t.none;
  t.size <- t.size - 1

(* A pooled table keeps its arrays up to this many slots (24 keys, two
   256-byte arrays); a larger one gives them back, so one large query
   cannot pin memory in a partition. DESIGN.md (decision 2) explains the
   value. *)
let max_pooled_capacity = 32

(* Empty [t] for reuse by another query ([grow] resets [shift] when it
   starts from no arrays). *)
let reset t =
  if Array.length t.keys > max_pooled_capacity then begin
    t.keys <- [||];
    t.vals <- [||];
    t.ints <- [||]
  end
  else if t.size > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    Array.fill t.vals 0 (Array.length t.vals) t.none
  end;
  t.size <- 0

(* --- Stores --- *)

type store = {
  vertices : entry itable;
  mutable null_key : entry; (* the Value.Null-keyed record, or [absent] *)
  mutable generic : entry Table.t option; (* every other key *)
}

let new_store () = { vertices = itable absent; null_key = absent; generic = None }

(* Stands in every label slot that has no store; never written. *)
let no_store = new_store ()

(* The record under [key], or [absent]. *)
let find s key =
  match key with
  | Value.Vertex v when v >= 0 ->
    let i = index s.vertices v in
    if i < 0 then absent else s.vertices.vals.(i)
  | Value.Null -> s.null_key
  | _ -> (
    match s.generic with
    | None -> absent
    | Some g -> ( match Table.find g key with e -> e | exception Not_found -> absent))

let generic s =
  match s.generic with
  | Some g -> g
  | None ->
    let g = Table.create 16 in
    s.generic <- Some g;
    g

(* Overwrite the record under [key], which must be present. *)
let replace s key e =
  match key with
  | Value.Vertex v when v >= 0 -> s.vertices.vals.(index s.vertices v) <- e
  | Value.Null -> s.null_key <- e
  | _ -> Table.replace (generic s) key e

(* Remove and return the record under [key], or [absent]. A Visit
   record becomes a boxed entry here. *)
let remove s key =
  match key with
  | Value.Vertex v when v >= 0 ->
    let i = index s.vertices v in
    if i < 0 then absent
    else begin
      let e = s.vertices.vals.(i) in
      let e = if e == dist then Scalar (Value.Int s.vertices.ints.(i)) else e in
      remove_at s.vertices i;
      e
    end
  | Value.Null ->
    let e = s.null_key in
    s.null_key <- absent;
    e
  | _ -> (
    match s.generic with
    | None -> absent
    | Some g -> (
      match Table.find g key with
      | e ->
        Table.remove g key;
        e
      | exception Not_found -> absent))

let store_length s =
  s.vertices.size
  + Bool.to_int (s.null_key != absent)
  + match s.generic with None -> 0 | Some g -> Table.length g

(* --- Queries --- *)

type query = {
  mutable qid : int; (* -1 while pooled *)
  mutable stores : store array; (* indexed by label; [no_store] where absent *)
}

(* Stands for "no query": never live, never pooled. *)
let nil = { qid = -1; stores = [||] }

type t = {
  queries : query itable; (* the live queries, by qid *)
  mutable last : query; (* the last query touched, or [nil]: consecutive steps mostly share it *)
  mutable live_entries : int;
  free_queries : query Vec.t; (* cleared, with every label slot [no_store] *)
  free_stores : store Vec.t; (* emptied *)
  free_partials : entry Vec.t; (* [Partial] entries of reset states *)
}

let create () =
  {
    queries = itable nil;
    last = nil;
    live_entries = 0;
    free_queries = Vec.create ~dummy:nil;
    free_stores = Vec.create ~dummy:no_store;
    free_partials = Vec.create ~dummy:absent;
  }

let live_entries t = t.live_entries

(* The live record of [qid], or [nil]. *)
let find_query t qid =
  let q = t.last in
  if q.qid = qid then q
  else if qid < 0 then nil
  else begin
    let i = index t.queries qid in
    if i < 0 then nil
    else begin
      let q = t.queries.vals.(i) in
      t.last <- q;
      q
    end
  end

(* The store under (qid, label) for a read: [no_store] if absent. *)
let peek t ~qid ~label =
  let stores = (find_query t qid).stores in
  if label < Array.length stores then stores.(label) else no_store

(* The store under (qid, label) for a write, created — from the free
   lists when they hold one — if absent. *)
let store t ~qid ~label =
  if qid < 0 then invalid_arg "Memo: negative qid";
  let q =
    match find_query t qid with
    | q when q != nil -> q
    | _ ->
      let q = if Vec.is_empty t.free_queries then { qid; stores = [||] } else Vec.pop t.free_queries in
      q.qid <- qid;
      insert t.queries qid q 0;
      t.last <- q;
      q
  in
  let n = Array.length q.stores in
  if label >= n then begin
    let stores = Array.make (max (label + 1) (2 * n)) no_store in
    Array.blit q.stores 0 stores 0 n;
    q.stores <- stores
  end;
  match q.stores.(label) with
  | s when s != no_store -> s
  | _ ->
    let s = if Vec.is_empty t.free_stores then new_store () else Vec.pop t.free_stores in
    q.stores.(label) <- s;
    s

(* Add a record under [key], which must be absent. *)
let add t s key e =
  t.live_entries <- t.live_entries + 1;
  match key with
  | Value.Vertex v when v >= 0 -> insert s.vertices v e 0
  | Value.Null -> s.null_key <- e
  | _ -> Table.add (generic s) key e

(* --- Operations --- *)

let set t ~qid ~label key entry =
  let s = store t ~qid ~label in
  if find s key == absent then add t s key entry else replace s key entry

(* Test-and-set for deduplication: true iff the key was absent. *)
let add_if_absent t ~qid ~label key =
  let s = store t ~qid ~label in
  if find s key != absent then false
  else begin
    add t s key seen;
    true
  end

(* [add_if_absent] of the key [Value.Vertex v], without boxing it. *)
let add_vertex_if_absent t ~qid ~label v =
  if v < 0 then invalid_arg "Memo.add_vertex_if_absent: negative vertex";
  let s = store t ~qid ~label in
  if index s.vertices v >= 0 then false
  else begin
    insert s.vertices v seen 0;
    t.live_entries <- t.live_entries + 1;
    true
  end

(* Minimum-distance update for the Visit step. *)
type visit_outcome =
  | First_visit
  | Improved
  | Not_improved

let min_int_update t ~qid ~label vertex d =
  if vertex < 0 then invalid_arg "Memo.min_int_update: negative vertex";
  let s = store t ~qid ~label in
  let v = s.vertices in
  let i = index v vertex in
  if i < 0 then begin
    insert v vertex dist d;
    t.live_entries <- t.live_entries + 1;
    First_visit
  end
  else begin
    let best =
      (* A record installed by a migration arrives boxed. *)
      match v.vals.(i) with
      | e when e == dist -> v.ints.(i)
      | Scalar (Value.Int best) -> best
      | _ -> min_int
    in
    if d < best then begin
      v.vals.(i) <- dist;
      v.ints.(i) <- d;
      Improved
    end
    else Not_improved
  end

(* The pool keeps at most this many partials; a query shape gone from
   the workload cannot make the search below long. *)
let max_pooled_partials = 64

(* A pooled [Partial] entry whose state fits [agg] on [graph], searched
   from slot [i] down (most recent first), or a new one. *)
let rec take_partial pool graph agg i =
  if i < 0 then Partial (Aggregate.create graph agg)
  else
    match Vec.get pool i with
    | Partial p when Aggregate.fits graph agg p -> Vec.swap_remove pool i
    | _ -> take_partial pool graph agg (i - 1)

(* Fetch-or-create the partial aggregate of step [label]. *)
let rec partial t ~qid ~label graph agg =
  let s = store t ~qid ~label in
  match s.null_key with
  | Partial p -> p
  | e when e == absent ->
    add t s Value.Null (take_partial t.free_partials graph agg (Vec.length t.free_partials - 1));
    partial t ~qid ~label graph agg
  | _ -> invalid_arg "Memo.partial: label holds a non-aggregate entry"

let find_partial t ~qid ~label ~absent:none f =
  match (peek t ~qid ~label).null_key with
  | Partial p -> f p
  | e when e == absent -> none
  | _ -> invalid_arg "Memo.find_partial: label holds a non-aggregate entry"

let partial_opt t ~qid ~label = find_partial t ~qid ~label ~absent:None Option.some

(* Append a row to a join side's bucket and return the opposite bucket. *)
let rows_add t ~qid ~label key row =
  let s = store t ~qid ~label in
  match find s key with
  | Rows rows -> replace s key (Rows (row :: rows))
  | e when e == absent -> add t s key (Rows [ row ])
  | _ -> invalid_arg "Memo.rows_add: label holds a non-rows entry"

let rows_get t ~qid ~label key =
  match find (peek t ~qid ~label) key with
  | Rows rows -> rows
  | e when e == absent -> []
  | _ -> invalid_arg "Memo.rows_get: label holds a non-rows entry"

(* Wire size of an entry, for costing migration messages. *)
let entry_bytes = function
  | Scalar v -> 16 + Value.bytes v
  | Partial p -> 16 + Aggregate.bytes p
  | Rows rows ->
    List.fold_left
      (fun acc row -> acc + 8 + Array.fold_left (fun a v -> a + Value.bytes v) 0 row)
      16 rows

(* Remove and return every record keyed by [key] — any label, any query —
   for re-homing when the key's vertex migrates to another partition: one
   lookup per (query, label). Aggregate partials are keyed by Value.Null,
   so they never match a vertex key and stay put (they are pulled from all
   workers anyway). Output is sorted by (qid, label): the order entries
   serialize into a migration message must not depend on table layout. *)
let extract_for_key t key =
  let qids = Array.fold_left (fun acc qid -> if qid >= 0 then qid :: acc else acc) [] t.queries.keys in
  let out = ref [] in
  List.iter
    (fun qid ->
      Array.iteri
        (fun label s ->
          if s != no_store then begin
            let e = remove s key in
            if e != absent then begin
              t.live_entries <- t.live_entries - 1;
              out := (qid, label, e) :: !out
            end
          end)
        (find_query t qid).stores)
    (List.sort Int.compare qids);
  List.rev !out

(* Drop a terminated query's records (automatic clearing of §III-B), and
   keep its record and stores for the next query. *)
let clear_query t qid =
  let i = if qid < 0 then -1 else index t.queries qid in
  if i >= 0 then begin
    let q = t.queries.vals.(i) in
    remove_at t.queries i;
    let stores = q.stores in
    for label = 0 to Array.length stores - 1 do
      let s = stores.(label) in
      if s != no_store then begin
        t.live_entries <- t.live_entries - store_length s;
        reset s.vertices;
        (match s.null_key with
        | Partial p as e when Vec.length t.free_partials < max_pooled_partials ->
          Aggregate.reset p;
          Vec.push t.free_partials e
        | _ -> ());
        s.null_key <- absent;
        (match s.generic with Some g -> Table.reset g | None -> ());
        stores.(label) <- no_store;
        Vec.push t.free_stores s
      end
    done;
    q.qid <- -1;
    if t.last == q then t.last <- nil;
    Vec.push t.free_queries q
  end
