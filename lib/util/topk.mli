(** Bounded top-k accumulator.

    [cmp] orders candidates; greater elements are better. The accumulator
    is partitionable: merging per-partition accumulators yields the global
    top-k, which is how the TopK step aggregates across workers. *)

type 'a t

val create : k:int -> cmp:('a -> 'a -> int) -> dummy:'a -> 'a t
val length : 'a t -> int
val add : 'a t -> 'a -> unit

(** [k] elements are kept, so {!add} keeps a new one only if it beats
    {!worst}. *)
val is_full : 'a t -> bool

(** The kept element the next one {!add} keeps would displace; raises
    when nothing is kept. *)
val worst : 'a t -> 'a

(** Merge [t] into [into]; [t] is unchanged. *)
val merge : into:'a t -> 'a t -> unit

(** Fold over the kept elements in no particular order. *)
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** The current top-k, best first. *)
val to_sorted_list : 'a t -> 'a list
