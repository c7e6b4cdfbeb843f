(** A worker quantum's staged traversers: per-(qid, step) groups in
    first-seen order, each element kept as traverser lanes ({!Travs})
    beside the causal context it arrived under, so staging builds no
    traverser record. Warm staging allocates nothing: a group is found
    by scanning the quantum's groups (a few dozen at most, since a
    quantum's budget is a few dozen tasks), and groups and their lanes
    are reused from quantum to quantum. *)

(** The unit a traverser executes in. *)
type group = {
  mutable qid : int;
  mutable step : int;
  travs : Travs.t;
  czs : int Vec.t;  (** [czs.(i)] is the context element [i] of [travs] arrived under *)
}

(** An empty group. *)
val group : unit -> group

(** Make [g] the group of one traverser. *)
val single :
  group -> qid:int -> cz:int -> vertex:int -> step:int -> weight:Weight.t ->
  regs:Value.t array -> unit

type t

val create : unit -> t

(** Add a traverser of query [qid] to its (qid, step) group, opened
    after the others if new. *)
val add :
  t -> qid:int -> cz:int -> vertex:int -> step:int -> weight:Weight.t -> regs:Value.t array ->
  unit

(** Groups staged since the last {!clear}; [get t i] is the [i]th
    opened. *)
val length : t -> int

val get : t -> int -> group

(** Empty every group, keeping them for the next quantum. *)
val clear : t -> unit
