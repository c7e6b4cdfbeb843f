(* Columnar property storage.

   Properties are stored per key as a column over all vertices (or all
   edges). Homogeneous columns are specialized to unboxed int/float/string
   arrays with a validity bitset; heterogeneous or sparse columns fall back
   to a boxed [Value.t] array. Missing entries read as [Value.Null]. *)

type column =
  | Ints of int array * Bitset.t
  | Floats of float array * Bitset.t
  | Strs of string array * Bitset.t
  | Mixed of Value.t array

type t = {
  size : int; (* number of rows (vertices or edges) *)
  columns : (int, column) Hashtbl.t; (* keyed by interned property-key id *)
}

let create ~size = { size; columns = Hashtbl.create 16 }

let size t = t.size

let keys t =
  (* det-ok: keys sorted so callers see a stable enumeration *)
  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.columns [])

(* Column lookups use [Hashtbl.find], not [find_opt]: a read must not
   allocate an option just to find its column. *)
let get t ~key id =
  if id < 0 || id >= t.size then invalid_arg "Props.get: row out of range";
  match Hashtbl.find t.columns key with
  | exception Not_found -> Value.Null
  | Ints (data, valid) -> if Bitset.mem valid id then Value.Int data.(id) else Value.Null
  | Floats (data, valid) -> if Bitset.mem valid id then Value.Float data.(id) else Value.Null
  | Strs (data, valid) -> if Bitset.mem valid id then Value.Str data.(id) else Value.Null
  | Mixed data -> data.(id)

(* [Value.compare (get t ~key id) v], without boxing the cell when it
   sits in an Ints column and [v] is an [Int], or in a Strs column and
   [v] is a [Str]: a filter such as [has('id', ne(s))] or
   [has('name', 'x')] compares a column against a constant on every
   traverser. *)
let compare_to t ~key id v =
  match v with
  | (Value.Int _ | Value.Str _) when id >= 0 && id < t.size -> (
    match Hashtbl.find t.columns key, v with
    | Ints (data, valid), Value.Int n when Bitset.mem valid id -> Int.compare data.(id) n
    | Strs (data, valid), Value.Str s when Bitset.mem valid id -> String.compare data.(id) s
    | _ | (exception Not_found) -> Value.compare (get t ~key id) v)
  | _ -> Value.compare (get t ~key id) v

let is_ints t ~key =
  match Hashtbl.find t.columns key with
  | Ints _ -> true
  | _ | (exception Not_found) -> false

(* Raising the constant [Not_found] allocates nothing, so an absent cell
   costs no option either. *)
let int_cell t ~key id =
  if id < 0 || id >= t.size then invalid_arg "Props.int_cell: row out of range";
  match Hashtbl.find t.columns key with
  | Ints (data, valid) when Bitset.mem valid id -> data.(id)
  | _ -> raise Not_found

let is_strs t ~key =
  match Hashtbl.find t.columns key with
  | Strs _ -> true
  | _ | (exception Not_found) -> false

let str_cell t ~key id =
  if id < 0 || id >= t.size then invalid_arg "Props.str_cell: row out of range";
  match Hashtbl.find t.columns key with
  | Strs (data, valid) when Bitset.mem valid id -> data.(id)
  | _ -> raise Not_found

(* Materialize a column from sparse (row, value) pairs. The column is
   specialized when every present value has the same primitive shape. *)
let column_of_pairs ~size pairs =
  let all p = not (Vec.exists (fun (_, v) -> not (p v)) pairs) in
  let is_int = function Value.Int _ -> true | _ -> false in
  let is_float = function Value.Float _ -> true | _ -> false in
  let is_str = function Value.Str _ -> true | _ -> false in
  if Vec.is_empty pairs then Mixed (Array.make size Value.Null)
  else if all is_int then begin
    let data = Array.make size 0 and valid = Bitset.create size in
    Vec.iter
      (fun (id, v) ->
        data.(id) <- Value.to_int_exn v;
        Bitset.add valid id)
      pairs;
    Ints (data, valid)
  end
  else if all is_float then begin
    let data = Array.make size 0.0 and valid = Bitset.create size in
    Vec.iter
      (fun (id, v) ->
        data.(id) <- Value.to_float_exn v;
        Bitset.add valid id)
      pairs;
    Floats (data, valid)
  end
  else if all is_str then begin
    let data = Array.make size "" and valid = Bitset.create size in
    Vec.iter
      (fun (id, v) ->
        (match v with Value.Str s -> data.(id) <- s | _ -> assert false);
        Bitset.add valid id)
      pairs;
    Strs (data, valid)
  end
  else begin
    let data = Array.make size Value.Null in
    Vec.iter (fun (id, v) -> data.(id) <- v) pairs;
    Mixed data
  end

let set_column t ~key column = Hashtbl.replace t.columns key column

let of_sparse ~size sparse =
  let t = create ~size in
  (* Keys are distinct and each key's column is built independently into
     its own slot, so no output depends on visit order. *)
  (* det-ok: independent per-key column builds; order cannot matter *)
  Hashtbl.iter (fun key pairs -> set_column t ~key (column_of_pairs ~size pairs)) sparse;
  t

let column_bytes = function
  | Ints (data, _) -> 8 * Array.length data
  | Floats (data, _) -> 8 * Array.length data
  | Strs (data, _) -> Array.fold_left (fun acc s -> acc + 16 + String.length s) 0 data
  | Mixed data -> Array.fold_left (fun acc v -> acc + 8 + Value.bytes v) 0 data

(* det-ok: commutative sum over columns *)
let bytes t = Hashtbl.fold (fun _ col acc -> acc + column_bytes col) t.columns 0
