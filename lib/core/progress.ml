(* Distributed progress tracking (§IV-A).

   Two tiers: the per-phase [tracker] living on the query coordinator,
   which accumulates finished weights and fires exactly when they sum back
   to the root weight; and the per-worker [coalescer], which implements
   weight coalescing — finished weights are merged locally (one integer
   addition each) and shipped straight to the coordinator only when the
   worker flushes its message buffers, slashing the tracker's message
   load (Figure 11). Because both tiers only ever *add* weights, the
   conservation sum of Theorem 1 is preserved. *)

type tracker = {
  target : Weight.t;
  mutable acc : Weight.t;
  mutable receipts : int;
  mutable complete : bool;
}

let tracker ~target = { target; acc = Weight.zero; receipts = 0; complete = false }

type receipt =
  | Complete
  | Pending

(* Accumulate one (possibly coalesced) finished weight. Returns [Complete]
   exactly once, on the receipt that closes the phase. *)
let receive t w =
  if t.complete then Pending
  else begin
    t.acc <- Weight.add t.acc w;
    t.receipts <- t.receipts + 1;
    if Weight.equal t.acc t.target then begin
      t.complete <- true;
      Complete
    end
    else Pending
  end

(* Mark the tracker complete regardless of the accumulated weight. Only
   the Early_tracker_release protocol mutant calls this; it exists so the
   checker layer can prove it would notice a tracker that stops counting
   before Theorem 1's conservation sum closes. *)
let force_complete t = t.complete <- true

let is_complete t = t.complete
let receipts t = t.receipts
let accumulated t = t.acc
let target t = t.target

(* --- Worker-local weight coalescing --- *)

type coalescer = {
  pending : (int * int, Weight.t) Hashtbl.t; (* (query, phase) -> merged weight *)
  mutable additions : int; (* total weight additions performed locally *)
  mutable pending_adds : int; (* additions since the last drain *)
}

let coalescer () = { pending = Hashtbl.create 8; additions = 0; pending_adds = 0 }

let coalesce c ~qid ~phase w =
  c.additions <- c.additions + 1;
  c.pending_adds <- c.pending_adds + 1;
  let key = (qid, phase) in
  let acc = Option.value ~default:Weight.zero (Hashtbl.find_opt c.pending key) in
  Hashtbl.replace c.pending key (Weight.add acc w)

let is_empty c = Hashtbl.length c.pending = 0

(* How many finished weights are merged but not yet shipped; workers flush
   when idle or when this passes their batching threshold, mirroring the
   "ship with the next buffer flush" rule of §IV-A. *)
let pending_additions c = c.pending_adds

(* Remove and return all merged weights, ready to be sent to trackers. *)
let drain c =
  (* det-ok: the collected triples are sorted below before shipping *)
  let out = Hashtbl.fold (fun (qid, phase) w acc -> (qid, phase, w) :: acc) c.pending [] in
  Hashtbl.reset c.pending;
  c.pending_adds <- 0;
  (* Deterministic shipping order: (qid, phase) is a unique key, so the
     weight never participates in the comparison. *)
  List.sort
    (fun (q1, p1, _) (q2, p2, _) ->
      match Int.compare q1 q2 with
      | 0 -> Int.compare p1 p2
      | c -> c)
    out

let additions c = c.additions

(* Drop any weight still parked for [qid]: the query was cancelled or
   timed out, so the weight will never reach a tracker and must not
   linger as keyed state for the rest of the run. [pending_adds] is left
   alone — it is only a flush heuristic, and resetting it here would
   change when unrelated queries flush. *)
let discard_query c ~qid =
  let doomed =
    (* det-ok: fold order is erased by the sort on the int pairs below *)
    Hashtbl.fold (fun (q, p) _ acc -> if q = qid then (q, p) :: acc else acc) c.pending []
    |> List.sort (fun (q1, p1) (q2, p2) ->
           match Int.compare q1 q2 with 0 -> Int.compare p1 p2 | c -> c)
  in
  List.iter (Hashtbl.remove c.pending) doomed
