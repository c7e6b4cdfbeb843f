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

(** Finished weights merged since the last {!drain_end}. *)
val pending_additions : coalescer -> int

(** Drain the coalescer: [let n = drain_begin c in] read entries
    [0, n) with {!qid_at}, {!phase_at}, {!tag_at} and {!weight_at}, in
    ascending [(qid, phase)] order, then call {!drain_end}. Weights that
    summed to zero still drain. Until {!drain_end}, any call that
    changes [c] raises [Invalid_argument]. *)
val drain_begin : coalescer -> int

val qid_at : coalescer -> int -> int
val phase_at : coalescer -> int -> int
val tag_at : coalescer -> int -> int
val weight_at : coalescer -> int -> Weight.t

(** Empty the coalescer and end the drain started by {!drain_begin}. *)
val drain_end : coalescer -> unit

(** Total local weight additions (each costs one integer add). *)
val additions : coalescer -> int

(** Drop any weight (and tag) still parked for a cancelled or timed-out
    query; its weight will never reach a tracker. *)
val discard_query : coalescer -> qid:int -> unit
