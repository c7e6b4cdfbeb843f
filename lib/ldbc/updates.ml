(* LDBC SNB interactive update operations (UP), §V-A1.

   Updates are priced, not executed. No read ever sees an update's
   writes, and the driver runs one update at a time, so under the §IV-C
   protocol (timestamps from a centralized manager, MV2PL locks, TEL
   appends, commit) every update commits and none conflicts. What the
   mixed-workload report needs is the price: [simulated_latency], a
   manager round trip for the timestamp, the lock/append work of the
   update's [footprint], and the commit round trip. *)

type kind =
  | Add_person
  | Add_friendship
  | Add_forum
  | Add_membership
  | Add_post
  | Add_comment
  | Add_like

let all_kinds =
  [ Add_person; Add_friendship; Add_forum; Add_membership; Add_post; Add_comment; Add_like ]

let kind_name = function
  | Add_person -> "UP-person"
  | Add_friendship -> "UP-friendship"
  | Add_forum -> "UP-forum"
  | Add_membership -> "UP-membership"
  | Add_post -> "UP-post"
  | Add_comment -> "UP-comment"
  | Add_like -> "UP-like"

(* Number of vertex locks + edge appends an update performs. *)
let footprint = function
  | Add_person -> (1, 2) (* new vertex, located-in + interest edges *)
  | Add_friendship -> (2, 2) (* both endpoints, knows in both directions *)
  | Add_forum -> (1, 1)
  | Add_membership -> (2, 1)
  | Add_post -> (2, 3) (* creator + forum; container/creator/tag edges *)
  | Add_comment -> (2, 2)
  | Add_like -> (2, 1)

(* A new vertex (person, forum, post, comment) joins the population
   first; then each existing endpoint is one uniform draw over it, and
   none while it is empty. [Prng.int] consumes one draw whatever its
   bound, so the count is all the state the stream depends on. *)
let draw_endpoints prng ~population kind =
  let draw () = if !population > 0 then ignore (Prng.int prng !population) in
  match kind with
  | Add_person | Add_post | Add_comment ->
    incr population;
    draw ()
  | Add_forum -> incr population
  | Add_friendship | Add_membership | Add_like ->
    draw ();
    draw ()

(* Simulated latency of one update: manager round trip for the timestamp,
   lock acquisitions and TEL appends, then the commit round trip. *)
let simulated_latency (net : Netmodel.t) (costs : Cluster.costs) kind =
  let locks, appends = footprint kind in
  let manager_rtt = 2 * Sim_time.to_ns net.Netmodel.wire_latency in
  Sim_time.ns
    ((2 * manager_rtt)
    + (locks * Sim_time.to_ns costs.Cluster.latch)
    + (appends * Sim_time.to_ns costs.Cluster.memo_op)
    + Sim_time.to_ns costs.Cluster.step_dispatch)
