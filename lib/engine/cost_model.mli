(** The async engine's CPU cost model. *)

type t

val create :
  costs:Cluster.costs -> shared_state:bool -> workers_per_node:int -> swapping:bool -> t

(** A query starts / stops being resident. *)
val launch : t -> Program.t -> unit

val retire : t -> Program.t -> unit

(** One memo operation. *)
val memo_op : t -> Sim_time.t

(** One group execution: {!Exec.cost} of the sink, plus the latch and
    swap penalties. *)
val step : t -> Exec.sink -> Sim_time.t

(** The dataflow flavors' per-quantum tax on resident operators. *)
val polling : t -> Sim_time.t
