(** Bounded top-k accumulator over (score, output) pairs.

    [cmp s1 o1 s2 o2] orders candidates; greater pairs are better. Scores
    and outputs live in two lanes sized at creation, so {!add} builds no
    tuple. The accumulator is partitionable: merging per-partition
    accumulators yields the global top-k, which is how the TopK step
    aggregates across workers. *)

type ('s, 'o) t

val create :
  k:int -> cmp:('s -> 'o -> 's -> 'o -> int) -> dummy_score:'s -> dummy_output:'o -> ('s, 'o) t

val k : ('s, 'o) t -> int
val length : ('s, 'o) t -> int
val add : ('s, 'o) t -> 's -> 'o -> unit

(** [k] pairs are kept, so {!add} keeps a new one only if it beats the
    worst kept pair. *)
val is_full : ('s, 'o) t -> bool

(** The score of the kept pair the next one {!add} keeps would displace;
    raises when nothing is kept. *)
val worst_score : ('s, 'o) t -> 's

(** Empty [t] for reuse; its lanes are kept. *)
val reset : ('s, 'o) t -> unit

(** Merge [t] into [into], feeding [t]'s pairs in ascending order; [t] is
    unchanged. *)
val merge : into:('s, 'o) t -> ('s, 'o) t -> unit

(** Fold over the kept pairs in no particular order. *)
val fold : ('acc -> 's -> 'o -> 'acc) -> 'acc -> ('s, 'o) t -> 'acc

(** The current top-k, best first. *)
val to_sorted_list : ('s, 'o) t -> ('s * 'o) list
