(** Growable array, the workhorse container of the traversal engines.

    A [dummy] element is required at creation; it fills unused capacity so
    that dropped elements do not leak through the backing array. *)

type 'a t

val create : dummy:'a -> 'a t
val make : dummy:'a -> int -> 'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** Remove all elements, keeping capacity. *)
val clear : 'a t -> unit

(** [truncate t n] drops every element from index [n] on, keeping
    capacity. *)
val truncate : 'a t -> int -> unit

(** Remove all elements and release the backing store. *)
val reset : 'a t -> unit

val push : 'a t -> 'a -> unit

(** Remove and return the last element. Raises on empty. *)
val pop : 'a t -> 'a

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val last : 'a t -> 'a
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list

(** A new vector holding the same elements, with exactly their
    capacity (one array copy). *)
val copy : 'a t -> 'a t
val of_array : dummy:'a -> 'a array -> 'a t

(** [append ~into src] pushes all of [src] onto [into]. *)
val append : into:'a t -> 'a t -> unit

(** O(1) removal that moves the last element into the hole. *)
val swap_remove : 'a t -> int -> 'a

val sort : ('a -> 'a -> int) -> 'a t -> unit
