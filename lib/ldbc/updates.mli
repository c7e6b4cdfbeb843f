(** LDBC SNB interactive update operations, priced by the §IV-C cost
    model rather than executed against a store. *)

type kind =
  | Add_person
  | Add_friendship
  | Add_forum
  | Add_membership
  | Add_post
  | Add_comment
  | Add_like

val all_kinds : kind list
val kind_name : kind -> string

(** [(vertex locks, edge appends)] performed by an update kind. *)
val footprint : kind -> int * int

(** Consume the PRNG draws that choosing one update's endpoints takes:
    a new person, forum, post or comment first adds one vertex to
    [population]; then persons, posts and comments draw one existing
    endpoint, friendships, memberships and likes two, forums none. No
    draw is made while [population] is 0. *)
val draw_endpoints : Prng.t -> population:int ref -> kind -> unit

(** Simulated latency of one update under the §IV-C cost model: manager
    round trips, lock acquisitions, TEL appends, commit broadcast. *)
val simulated_latency : Netmodel.t -> Cluster.costs -> kind -> Sim_time.t
