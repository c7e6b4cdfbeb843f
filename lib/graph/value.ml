(* Property values.

   The property graph model of the paper assigns key-value pairs to vertices
   and edges; traversers additionally carry local variables of the same
   type. [bytes] estimates the serialized size of a value, which the cluster
   simulator charges against network bandwidth when a traverser migrates. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Vertex of int
  | Edge of int
  | List of t list

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Bool x, Bool y -> Bool.compare x y
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Int x, Int y -> Int.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Float x, Float y -> Float.compare x y
  | Float _, _ -> -1
  | _, Float _ -> 1
  | Str x, Str y -> String.compare x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Vertex x, Vertex y -> Int.compare x y
  | Vertex _, _ -> -1
  | _, Vertex _ -> 1
  | Edge x, Edge y -> Int.compare x y
  | Edge _, _ -> -1
  | _, Edge _ -> 1
  | List x, List y -> List.compare compare x y

let equal a b = compare a b = 0

let small_ints = Array.init 256 (fun n -> Int n)
let int n = if n >= 0 && n < 256 then small_ints.(n) else Int n

let rec hash = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> Hashtbl.hash i
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Vertex v -> Hashtbl.hash (3, v)
  | Edge e -> Hashtbl.hash (4, e)
  | List l -> List.fold_left (fun acc v -> (acc * 31) + hash v) 7 l

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | Str s -> Fmt.pf ppf "%S" s
  | Vertex v -> Fmt.pf ppf "v[%d]" v
  | Edge e -> Fmt.pf ppf "e[%d]" e
  | List l -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp) l

let to_string v = Fmt.str "%a" pp v

let rec bytes = function
  | Null | Bool _ -> 1
  | Int _ | Float _ | Vertex _ | Edge _ -> 8
  | Str s -> 8 + String.length s
  | List l -> List.fold_left (fun acc v -> acc + bytes v) 8 l

let is_null = function Null -> true | _ -> false

let to_int = function
  | Int i -> Some i
  | Vertex v -> Some v
  | Edge e -> Some e
  | Bool b -> Some (if b then 1 else 0)
  | _ -> None

(* The [_exn] forms match the variant themselves: going through the
   option would allocate a [Some] per call wherever [to_int] is not
   inlined (every Visit step reads its distance register this way). *)
let to_int_exn = function
  | Int i -> i
  | Vertex v -> v
  | Edge e -> e
  | Bool b -> if b then 1 else 0
  | v -> invalid_arg (Fmt.str "Value.to_int_exn: %a" pp v)

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_float_exn = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> invalid_arg (Fmt.str "Value.to_float_exn: %a" pp v)

let vertex_exn = function
  | Vertex v -> v
  | v -> invalid_arg (Fmt.str "Value.vertex_exn: %a" pp v)

(* Arithmetic used by the Sum aggregation: integers stay integers, any
   float operand promotes the result. *)
let add a b =
  match a, b with
  | Null, x | x, Null -> x
  | Int x, Int y -> Int (x + y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float_exn a +. to_float_exn b)
  | _ -> invalid_arg "Value.add: non-numeric operands"
