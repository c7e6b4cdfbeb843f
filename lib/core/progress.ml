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

(* --- Worker-local weight coalescing ---

   The merged weights live in parallel arrays kept sorted by (qid, phase):
   a worker has only a handful of live keys, so a binary search plus the
   rare insertion shift beats hashing, and merging a weight allocates
   nothing. The sorted order is also the deterministic shipping order.
   Each entry also keeps the tag of its last contributor (the engines'
   causal context), so the tag lives and dies with its weight. *)

type coalescer = {
  mutable qids : int array;
  mutable phases : int array;
  mutable weights : Weight.t array;
  mutable tags : int array;
  mutable len : int; (* live entries: the prefix [0, len) *)
  mutable additions : int; (* total weight additions performed locally *)
  mutable pending_adds : int; (* additions since the last drain *)
  mutable draining : bool; (* between [drain_begin] and [drain_end] *)
}

let coalescer () =
  {
    qids = Array.make 8 0;
    phases = Array.make 8 0;
    weights = Array.make 8 Weight.zero;
    tags = Array.make 8 0;
    len = 0;
    additions = 0;
    pending_adds = 0;
    draining = false;
  }

let not_draining c fn =
  if c.draining then invalid_arg ("Progress." ^ fn ^ ": coalescer re-entered during a drain")

(* First index whose key is >= (qid, phase). *)
let search c ~qid ~phase =
  let lo = ref 0 and hi = ref c.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let q = c.qids.(mid) in
    if q < qid || (q = qid && c.phases.(mid) < phase) then lo := mid + 1 else hi := mid
  done;
  !lo

let grow c =
  let cap = 2 * Array.length c.qids in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 c.len;
    b
  in
  c.qids <- extend c.qids 0;
  c.phases <- extend c.phases 0;
  c.weights <- extend c.weights Weight.zero;
  c.tags <- extend c.tags 0

let coalesce c ~qid ~phase ~tag w =
  not_draining c "coalesce";
  c.additions <- c.additions + 1;
  c.pending_adds <- c.pending_adds + 1;
  let i = search c ~qid ~phase in
  if i < c.len && c.qids.(i) = qid && c.phases.(i) = phase then begin
    c.weights.(i) <- Weight.add c.weights.(i) w;
    c.tags.(i) <- tag
  end
  else begin
    if c.len = Array.length c.qids then grow c;
    let tail = c.len - i in
    Array.blit c.qids i c.qids (i + 1) tail;
    Array.blit c.phases i c.phases (i + 1) tail;
    Array.blit c.weights i c.weights (i + 1) tail;
    Array.blit c.tags i c.tags (i + 1) tail;
    c.qids.(i) <- qid;
    c.phases.(i) <- phase;
    c.weights.(i) <- w;
    c.tags.(i) <- tag;
    c.len <- c.len + 1
  end

let is_empty c = c.len = 0

(* How many finished weights are merged but not yet shipped; workers flush
   when idle or when this passes their batching threshold, mirroring the
   "ship with the next buffer flush" rule of §IV-A. *)
let pending_additions c = c.pending_adds

(* Draining hands every merged weight and its tag over in ascending
   (qid, phase) order and empties the coalescer. Entries whose weights
   summed to zero still ship: the tracker counts the receipt. The caller
   reads the entries by index, so a drain builds no callback closure. *)
let drain_begin c =
  not_draining c "drain_begin";
  c.draining <- true;
  c.len

let qid_at c i = c.qids.(i)
let phase_at c i = c.phases.(i)
let tag_at c i = c.tags.(i)
let weight_at c i = c.weights.(i)

let drain_end c =
  c.draining <- false;
  c.len <- 0;
  c.pending_adds <- 0

let additions c = c.additions

(* Drop any weight still parked for [qid]: the query was cancelled or
   timed out, so the weight will never reach a tracker and must not
   linger as keyed state for the rest of the run. [pending_adds] is left
   alone — it is only a flush heuristic, and resetting it here would
   change when unrelated queries flush. *)
let discard_query c ~qid =
  not_draining c "discard_query";
  let kept = ref 0 in
  for i = 0 to c.len - 1 do
    if c.qids.(i) <> qid then begin
      c.qids.(!kept) <- c.qids.(i);
      c.phases.(!kept) <- c.phases.(i);
      c.weights.(!kept) <- c.weights.(i);
      c.tags.(!kept) <- c.tags.(i);
      incr kept
    end
  done;
  c.len <- !kept
