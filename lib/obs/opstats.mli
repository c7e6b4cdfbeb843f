(** Per-step operator statistics (EXPLAIN ANALYZE-style), aggregated
    across workers by compiled step index. *)

type t

(** Shared no-op collector. *)
val disabled : t

val create : unit -> t
val enabled : t -> bool

(** Record one execution of [n] traversers at [step] (a scalar engine
    executes one traverser at a time; a batched engine a whole group):
    [out] spawned continuations, [rows] result rows, whether the
    execution retired finished weight, [edges] scanned, memo hits/misses,
    and simulated busy time. Traversers in count per traverser ([n]);
    "finished" / "retired" counts per execution, so it is the number of
    finished-weight hand-offs to progress tracking. *)
val record :
  t ->
  step:int ->
  n:int ->
  out:int ->
  rows:int ->
  finished:bool ->
  edges:int ->
  memo_hits:int ->
  memo_misses:int ->
  busy_ns:int ->
  unit

(** Count [k] traversers injected from outside any step (query entry
    seeds, phase-boundary continuations). *)
val seed : t -> int -> unit

val n_steps : t -> int
val seeds : t -> int
val total_in : t -> int
val total_out : t -> int
val total_finished : t -> int

(** [total_in = seeds + total_out] — every executed traverser was either
    injected or produced by a step. *)
val conserves : t -> bool

val pp_table : ?step_label:(int -> string) -> Format.formatter -> t -> unit
val to_json : ?step_label:(int -> string) -> t -> Json.t
