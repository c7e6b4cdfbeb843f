(** Columnar property storage with typed columns and a [Null] default. *)

type column =
  | Ints of int array * Bitset.t
  | Floats of float array * Bitset.t
  | Strs of string array * Bitset.t
  | Mixed of Value.t array

type t

val create : size:int -> t

(** Number of rows (vertices or edges). *)
val size : t -> int

val keys : t -> int list

(** [get t ~key id] is the value at row [id], or [Null] when absent. *)
val get : t -> key:int -> int -> Value.t

(** [Value.compare (get t ~key id) v]; allocates nothing when the cell
    is in an integer column and [v] is an [Int], or in a string column
    and [v] is a [Str]. *)
val compare_to : t -> key:int -> int -> Value.t -> int

(** Column [key] is an [Ints] column. *)
val is_ints : t -> key:int -> bool

(** The cell at row [id] of the [Ints] column [key], unboxed. Raises
    [Not_found] when the cell is empty or [key] is not an [Ints] column;
    allocates nothing either way. *)
val int_cell : t -> key:int -> int -> int

(** Column [key] is a [Strs] column. *)
val is_strs : t -> key:int -> bool

(** The cell at row [id] of the [Strs] column [key], the column's own
    string. Raises [Not_found] when the cell is empty or [key] is not a
    [Strs] column; allocates nothing either way. *)
val str_cell : t -> key:int -> int -> string

(** Build from sparse per-key (row, value) pair lists; homogeneous columns
    are specialized to unboxed arrays. *)
val of_sparse : size:int -> (int, (int * Value.t) Vec.t) Hashtbl.t -> t

(** Estimated memory footprint in bytes. *)
val bytes : t -> int
