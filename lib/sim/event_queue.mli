(** Deterministic discrete-event scheduler.

    The tie-break key for events scheduled at the same simulated time is
    the insertion sequence number — an explicit, monotonically increasing
    counter assigned by [schedule_at] — never implicit heap order. Equal
    times therefore fire in schedule order, and the whole simulation is a
    pure function of the schedule calls. *)

type t

(** One schedulable alternative at a tied timestamp, identified by its
    insertion sequence number and the scheduler-supplied dependence tag. *)
type choice = {
  c_seq : int;  (** insertion sequence — the deterministic tie-break key *)
  c_tag : int;  (** dependence class (link / worker / query); 0 = untagged *)
}

(** A chooser picks which of the tied entries fires first, by index into
    the array. Out-of-range picks fall back to index 0 (the default
    schedule order). The array always has at least two elements and is in
    ascending [c_seq] order. *)
type chooser = choice array -> int

val create : unit -> t

(** Current simulated time; advances only while running events. *)
val now : t -> Sim_time.t

(** Number of events executed so far. *)
val executed : t -> int

(** Number of events still scheduled. *)
val pending : t -> int

(** Time of the earliest scheduled event, if any. *)
val next_time : t -> Sim_time.t option

(** The sequence number the next scheduled event will receive. *)
val next_seq : t -> int

(** Install (or remove) a same-timestamp tie chooser. With [None] (the
    default) ties fire in insertion order; the explorer installs a chooser
    to permute commuting deliveries. Entries not picked are pushed back
    with their sequence numbers intact, so a chooser that always returns 0
    reproduces the default schedule exactly. *)
val set_chooser : t -> chooser option -> unit

(** Schedule a closure; raises if [time] is before [now]. Events at equal
    times fire in schedule order. [tag] labels the event's dependence
    class for choosers (0 = untagged); it does not affect default
    ordering. Scheduling a prebuilt closure allocates nothing once the
    queue has grown to its working depth. *)
val schedule_at : t -> time:Sim_time.t -> tag:int -> (unit -> unit) -> unit

(** [schedule_call t ~time ~tag f arg] schedules [f arg], exactly like
    [schedule_at] schedules a thunk: same checks, same sequence numbers,
    same ordering. One prebuilt [f] can serve every entry, each with its
    own [arg], so no closure is built per event. *)
val schedule_call : t -> time:Sim_time.t -> tag:int -> (int -> unit) -> int -> unit

val schedule_after : t -> delay:Sim_time.t -> tag:int -> (unit -> unit) -> unit

(** Execute the next event; [false] when the queue is empty. *)
val step : t -> bool

(** Drain the queue; raises if events are still pending after
    [max_events] have run. *)
val run_to_completion : ?max_events:int -> t -> unit

(** Run all events up to and including [time], then set the clock there. *)
val run_until : t -> time:Sim_time.t -> unit
