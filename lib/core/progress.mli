(** Weight-based progress tracking and termination detection (§IV-A). *)

type tracker

(** Tracker for one phase of one query; fires when finished weights sum to
    [target]. *)
val tracker : target:Weight.t -> tracker

type receipt =
  | Complete
  | Pending

(** Accumulate a finished weight; [Complete] is returned exactly once. *)
val receive : tracker -> Weight.t -> receipt

val is_complete : tracker -> bool

(** Mark the tracker complete regardless of accumulated weight. For the
    [Early_tracker_release] protocol mutant only — never called on a
    healthy path. *)
val force_complete : tracker -> unit

(** Number of weight receipts processed (Figure 11's tracker load). *)
val receipts : tracker -> int

(** Finished weight accumulated so far (reaches the root weight exactly
    at phase completion — Theorem 1). *)
val accumulated : tracker -> Weight.t

(** The root weight the tracker is waiting to see returned. *)
val target : tracker -> Weight.t

(** Worker-local weight coalescing: finished weights merge locally and
    ship only on buffer flush. *)
type coalescer

val coalescer : unit -> coalescer

(** Merge a finished weight into the [(qid, phase)] entry. The entry keeps
    the [tag] of its last contributor (the async engine's causal context). *)
val coalesce : coalescer -> qid:int -> phase:int -> tag:int -> Weight.t -> unit

val is_empty : coalescer -> bool

(** Finished weights merged since the last {!drain}. *)
val pending_additions : coalescer -> int

(** [drain c f] calls [f qid phase tag weight] once per merged weight, in
    ascending [(qid, phase)] order, then empties the coalescer. Weights
    that summed to zero still drain. [f] must not touch [c] (raises
    [Invalid_argument]). *)
val drain : coalescer -> (int -> int -> int -> Weight.t -> unit) -> unit

(** Total local weight additions (each costs one integer add). *)
val additions : coalescer -> int

(** Drop any weight (and tag) still parked for a cancelled or timed-out
    query; its weight will never reach a tracker. *)
val discard_query : coalescer -> qid:int -> unit
