(** Growable FIFO ring buffer: [push] and [pop] allocate nothing except
    when the backing array doubles. A [dummy] element fills unused slots
    so that popped elements do not leak through the array. *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** Append at the back. *)
val push : 'a t -> 'a -> unit

(** Remove and return the front element. Raises on empty. *)
val pop : 'a t -> 'a
