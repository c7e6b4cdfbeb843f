(* The async engine's messages between workers, shared by the engine and
   the seams that build them ({!Progress_tier}, {!Migration}).

   Every payload that can sit on a query's causal chain carries a causal
   context [cz]: the id of the {!Pstm_obs.Causal} DAG node that produced
   it (-1 when causal tracing is off). The field is mutable because
   delivery rewrites it to the arrival node, so the consumer's edge
   covers only the queue wait, not the network hop again. [cz] is pure
   metadata: [bytes] ignores it, so the simulated byte counts and costs
   are untouched whether tracing is on or off. *)

type t =
  | P_trav of { qid : int; trav : Traverser.t; mutable cz : int }
  | P_trav_batch of { qid : int; travs : Traverser.t list; mutable cz : int }
    (* Frontier batching ([Engine.Common.batched]): one coalesced message
       per (destination, kind) bucket instead of one packet per traverser.
       Each traverser still carries its own step and weight, so reliable
       delivery (ack / retransmit / dedup) treats the batch like any
       other payload and conservation is untouched. *)
  | P_progress of { qid : int; phase : int; weight : Weight.t; mutable cz : int }
  | P_agg_flush of { qid : int; agg_step : int; mutable cz : int }
  | P_agg_partial of { qid : int; agg_step : int; partial : Aggregate.t option; mutable cz : int }
  | P_cleanup of { qid : int }
  | P_setup of { qid : int; mutable cz : int } (* dataflow flavors: instantiate operators *)
  | P_setup_ack of { qid : int; mutable cz : int }
  (* Vertex migration (adaptive repartitioning). The order goes to the
     old owner, which extracts the vertex's memo entries and ships them
     to the new owner as one costed data message. *)
  | P_migrate of { vertex : int; dst : int; mutable cz : int }
  | P_migrate_data of { vertex : int; entries : (int * int * Memo.entry) list; mutable cz : int }

(* The engine's send: a same-worker push or a channel message; returns
   the sender's CPU cost. *)
type send = at:Sim_time.t -> src:int -> dst:int -> kind:Metrics.msg_kind -> t -> Sim_time.t

let bytes = function
  | P_trav { trav; _ } -> 8 + Traverser.bytes trav
  | P_trav_batch { travs; _ } ->
    (* One header amortized over the batch; elements pay only their own
       serialized size, not a per-message frame. *)
    List.fold_left (fun acc t -> acc + Traverser.bytes t) 16 travs
  | P_progress _ -> 8 + Weight.bytes + 8
  | P_agg_flush _ -> 16
  | P_agg_partial { partial; _ } ->
    16 + (match partial with None -> 0 | Some p -> Aggregate.bytes p)
  | P_cleanup _ -> 8
  | P_setup _ | P_setup_ack _ -> 16
  | P_migrate _ -> 16
  | P_migrate_data { entries; _ } ->
    List.fold_left (fun acc (_, _, e) -> acc + 16 + Memo.entry_bytes e) 16 entries

(* Arrival interception: when a context-carrying payload lands on a
   worker's queue, register an arrival node at the delivery instant [ts]
   and rewrite the payload's [cz] to it, so the consumer's edge covers
   only the queue wait from here on. [hop] is Network, or Retransmit
   when the reliable channel is delivering a retransmitted copy — that
   edge *is* the recovery stall. *)
let arrive causal ~ts hop p =
  let arrive ~qid ~name cz =
    if cz < 0 then -1 else Pstm_obs.Causal.hop causal ~qid ~name ~ts ~src:cz hop
  in
  match p with
  | P_trav ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive" r.cz
  | P_trav_batch ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-batch" r.cz
  | P_progress ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-progress" r.cz
  | P_agg_flush ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-agg" r.cz
  | P_agg_partial ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-partial" r.cz
  | P_setup ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-setup" r.cz
  | P_setup_ack ({ qid; _ } as r) -> r.cz <- arrive ~qid ~name:"arrive-ack" r.cz
  | P_migrate r -> r.cz <- arrive ~qid:(-1) ~name:"arrive-migrate" r.cz
  | P_migrate_data r -> r.cz <- arrive ~qid:(-1) ~name:"arrive-mdata" r.cz
  | P_cleanup _ -> ()
