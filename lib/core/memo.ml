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
   key goes to a generic [Hashtbl.Make] table, created on first use. *)

type entry =
  | Scalar of Value.t
  | Partial of Aggregate.t
  | Rows of Value.t array list

(* Marks an empty slot and a missing record; compared with [==] only. *)
let absent = Scalar (Value.Str "absent")

(* Dedup keeps presence only. *)
let seen = Scalar Value.Null

module Table = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type store = {
  mutable keys : int array; (* vertex ids; capacity 0 or a power of two *)
  mutable vals : entry array; (* [absent] where [keys] holds -1 *)
  mutable size : int;
  mutable shift : int; (* 63 - log2 capacity: [home] keeps the top bits *)
  mutable null_key : entry; (* the Value.Null-keyed record, or [absent] *)
  mutable generic : entry Table.t option; (* every other key *)
}

type query = {
  qid : int;
  mutable stores : store array; (* indexed by label *)
}

type t = {
  queries : (int, query) Hashtbl.t;
  mutable last : query; (* the last query touched: consecutive steps mostly share it *)
  mutable live_entries : int;
}

(* Never returned by [query]; stands for "no query cached". *)
let nil = { qid = min_int; stores = [||] }

let create () = { queries = Hashtbl.create 8; last = nil; live_entries = 0 }
let live_entries t = t.live_entries

let query t qid =
  let q = t.last in
  if q.qid = qid && q != nil then q
  else begin
    let q =
      match Hashtbl.find t.queries qid with
      | q -> q
      | exception Not_found ->
        let q = { qid; stores = [||] } in
        Hashtbl.add t.queries qid q;
        q
    in
    t.last <- q;
    q
  end

let new_store () =
  { keys = [||]; vals = [||]; size = 0; shift = 63; null_key = absent; generic = None }

let store t ~qid ~label =
  let q = query t qid in
  let n = Array.length q.stores in
  if label >= n then
    q.stores <- Array.init (label + 1) (fun l -> if l < n then q.stores.(l) else new_store ());
  q.stores.(label)

(* --- The vertex table --- *)

(* Multiplicative hashing on the top bits. Partitions split vertices by
   the low bits of a different mixer, so the ids one memo sees share
   those bits and must not decide the slot. *)
let home s v = (v * 0x4F1BBCDCBFA53E0B) lsr s.shift

let rec probe keys mask v i =
  let k = keys.(i) in
  if k = v then i else if k < 0 then -1 else probe keys mask v ((i + 1) land mask)

(* Slot of vertex [v], or -1. *)
let index s v = if s.size = 0 then -1 else probe s.keys (Array.length s.keys - 1) v (home s v)

let rec free_slot keys mask i = if keys.(i) < 0 then i else free_slot keys mask ((i + 1) land mask)

let place s v e =
  let i = free_slot s.keys (Array.length s.keys - 1) (home s v) in
  s.keys.(i) <- v;
  s.vals.(i) <- e

let grow s =
  let keys = s.keys and vals = s.vals in
  let capacity = max 8 (2 * Array.length keys) in
  s.keys <- Array.make capacity (-1);
  s.vals <- Array.make capacity absent;
  s.shift <- (if Array.length keys = 0 then 60 else s.shift - 1);
  Array.iteri (fun i v -> if v >= 0 then place s v vals.(i)) keys

(* Insert absent vertex [v], keeping the load at most 3/4. *)
let insert s v e =
  if (s.size + 1) * 4 > Array.length s.keys * 3 then grow s;
  place s v e;
  s.size <- s.size + 1

(* Empty slot [i], then walk its probe run and move back every key whose
   home does not lie cyclically after the hole, so no run has a gap. *)
let remove_at s i =
  let keys = s.keys and vals = s.vals in
  let mask = Array.length keys - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while keys.(!j) >= 0 do
    let v = keys.(!j) in
    if (!j - home s v) land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- v;
      vals.(!hole) <- vals.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- -1;
  vals.(!hole) <- absent;
  s.size <- s.size - 1

(* --- Any key --- *)

(* The record under [key], or [absent]. *)
let find s key =
  match key with
  | Value.Vertex v when v >= 0 ->
    let i = index s v in
    if i < 0 then absent else s.vals.(i)
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

(* Add a record under [key], which must be absent. *)
let add t s key e =
  t.live_entries <- t.live_entries + 1;
  match key with
  | Value.Vertex v when v >= 0 -> insert s v e
  | Value.Null -> s.null_key <- e
  | _ -> Table.add (generic s) key e

(* Overwrite the record under [key], which must be present. *)
let replace s key e =
  match key with
  | Value.Vertex v when v >= 0 -> s.vals.(index s v) <- e
  | Value.Null -> s.null_key <- e
  | _ -> Table.replace (generic s) key e

(* Remove and return the record under [key], or [absent]. *)
let remove s key =
  match key with
  | Value.Vertex v when v >= 0 ->
    let i = index s v in
    if i < 0 then absent
    else begin
      let e = s.vals.(i) in
      remove_at s i;
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
  s.size
  + Bool.to_int (s.null_key != absent)
  + match s.generic with None -> 0 | Some g -> Table.length g

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

(* Minimum-distance update for the Visit step. *)
type visit_outcome =
  | First_visit
  | Improved
  | Not_improved

let min_int_update t ~qid ~label vertex d =
  if vertex < 0 then invalid_arg "Memo.min_int_update: negative vertex";
  let s = store t ~qid ~label in
  let i = index s vertex in
  if i < 0 then begin
    insert s vertex (Scalar (Value.Int d));
    t.live_entries <- t.live_entries + 1;
    First_visit
  end
  else
    match s.vals.(i) with
    | Scalar (Value.Int best) when d < best ->
      s.vals.(i) <- Scalar (Value.Int d);
      Improved
    | _ -> Not_improved

(* Fetch-or-create the partial aggregate of step [label]. *)
let partial t ~qid ~label agg =
  let s = store t ~qid ~label in
  match s.null_key with
  | Partial p -> p
  | e when e == absent ->
    let p = Aggregate.create agg in
    add t s Value.Null (Partial p);
    p
  | _ -> invalid_arg "Memo.partial: label holds a non-aggregate entry"

let partial_opt t ~qid ~label =
  match (store t ~qid ~label).null_key with
  | Partial p -> Some p
  | e when e == absent -> None
  | _ -> invalid_arg "Memo.partial_opt: label holds a non-aggregate entry"

(* Append a row to a join side's bucket and return the opposite bucket. *)
let rows_add t ~qid ~label key row =
  let s = store t ~qid ~label in
  match find s key with
  | Rows rows -> replace s key (Rows (row :: rows))
  | e when e == absent -> add t s key (Rows [ row ])
  | _ -> invalid_arg "Memo.rows_add: label holds a non-rows entry"

let rows_get t ~qid ~label key =
  match find (store t ~qid ~label) key with
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
  (* det-ok: the qids are sorted right below *)
  let qids = Hashtbl.fold (fun qid _ acc -> qid :: acc) t.queries [] in
  let out = ref [] in
  List.iter
    (fun qid ->
      Array.iteri
        (fun label s ->
          let e = remove s key in
          if e != absent then begin
            t.live_entries <- t.live_entries - 1;
            out := (qid, label, e) :: !out
          end)
        (Hashtbl.find t.queries qid).stores)
    (List.sort Int.compare qids);
  List.rev !out

(* Drop a terminated query's records (automatic clearing of §III-B). *)
let clear_query t qid =
  match Hashtbl.find_opt t.queries qid with
  | None -> ()
  | Some q ->
    t.live_entries <- t.live_entries - Array.fold_left (fun n s -> n + store_length s) 0 q.stores;
    Hashtbl.remove t.queries qid;
    if t.last == q then t.last <- nil
