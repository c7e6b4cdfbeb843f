(** Binary min-heap with the ordering fixed at creation. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> dummy:'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val clear : 'a t -> unit
val push : 'a t -> 'a -> unit

(** Smallest element without removing it. *)
val peek : 'a t -> 'a option

val peek_exn : 'a t -> 'a

(** Remove and return the smallest element. Raises on empty. *)
val pop : 'a t -> 'a

val pop_opt : 'a t -> 'a option

(** An independent heap with the same elements. *)
val copy : 'a t -> 'a t

(** Fold over the elements in heap-array order, not sorted order. *)
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** Non-destructive ascending drain, for tests. *)
val to_sorted_list : 'a t -> 'a list
