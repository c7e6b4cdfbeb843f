(** Binary min-heap of (key, value) pairs, with the ordering fixed at
    creation. Pairs sit in two flat lanes by slot; the heap sifts an int
    lane of slots. *)

type ('k, 'v) t

(** Lanes of [capacity] slots; a push past it doubles them. *)
val create :
  cmp:('k -> 'v -> 'k -> 'v -> int) -> capacity:int -> dummy_key:'k -> dummy_value:'v -> ('k, 'v) t

val length : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool

(** Empty the heap, dropping its pairs; its lanes are kept. *)
val clear : ('k, 'v) t -> unit

val push : ('k, 'v) t -> 'k -> 'v -> unit

(** The smallest pair's key and value. Raise on empty. *)
val min_key : ('k, 'v) t -> 'k

val min_value : ('k, 'v) t -> 'v

(** Remove the smallest pair. Raises on empty. *)
val pop : ('k, 'v) t -> unit

(** An int lane that {!iter_ascending} pops instead of the heap's own. *)
type scratch

val scratch : unit -> scratch

(** [iter_ascending f x scratch t] calls [f x k v] on [t]'s pairs in the
    order repeated {!pop}s would remove them, without changing [t]: the
    pops run on a copy of [t]'s int lane of slots in [scratch], which
    grows to fit and allocates nothing once it has. [f] must not change
    [t]. *)
val iter_ascending : ('a -> 'k -> 'v -> unit) -> 'a -> scratch -> ('k, 'v) t -> unit

(** Fold over the pairs in heap-array order, not sorted order. *)
val fold : ('acc -> 'k -> 'v -> 'acc) -> 'acc -> ('k, 'v) t -> 'acc

(** Non-destructive ascending drain, for tests. *)
val to_sorted_list : ('k, 'v) t -> ('k * 'v) list
