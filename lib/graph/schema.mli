(** Schema: interned vertex labels, edge labels and property keys.

    Interning happens while loading or building the graph; the query
    compiler resolves names to ids once, and engines compare ids only. *)

type t

val create : unit -> t

(** Intern (registering if new). *)
val vertex_label : t -> string -> int

val edge_label : t -> string -> int
val property_key : t -> string -> int

(** Look up without registering. *)
val vertex_label_opt : t -> string -> int option

val edge_label_opt : t -> string -> int option
val property_key_opt : t -> string -> int option

(** Look up, raising [Invalid_argument] on unknown names. *)
val vertex_label_exn : t -> string -> int

val edge_label_exn : t -> string -> int
val property_key_exn : t -> string -> int

val vertex_label_name : t -> int -> string
val vertex_label_count : t -> int
