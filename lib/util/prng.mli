(** Deterministic SplitMix64 pseudo-random generator.

    All randomized components (graph generators, weight splitting, workload
    drivers) draw from an explicit [t] so that experiments are reproducible. *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int -> t

(** Independent copy sharing no future state with the original. *)
val copy : t -> t

(** Derive an independent child generator; advances the parent. *)
val split : t -> t

(** Next raw 64-bit value. *)
val next_int64 : t -> int64

(** [fill_int63 t out ~n] writes [n] consecutive draws into
    [out.(0 .. n-1)] as native ints — the same values as [n] successive
    [Int64.to_int (next_int64 t)] calls, without boxing each draw. *)
val fill_int63 : t -> int array -> n:int -> unit

(** [int t bound] is uniform in [0, bound). Raises on [bound <= 0]. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] is uniform in [lo, hi] inclusive. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

val bool : t -> bool

(** [chance t p] is true with probability [p]. *)
val chance : t -> float -> bool

(** Exponentially distributed value with the given mean. *)
val exponential : t -> mean:float -> float

val shuffle_in_place : t -> 'a array -> unit

(** Uniform element of a non-empty array. *)
val pick : t -> 'a array -> 'a
