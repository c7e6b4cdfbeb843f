(* Discrete-event scheduler.

   A binary heap of (time, sequence, thunk); the insertion sequence number
   is the explicit tie-break key: events scheduled at equal times fire in
   schedule order, which makes whole-cluster simulations fully
   deterministic. Engines drive the simulation by scheduling closures and
   calling [run_to_completion].

   Same-timestamp ties are the only scheduling freedom a real asynchronous
   cluster has that the DES normally collapses; [set_chooser] re-opens it.
   When a chooser is installed, [step] gathers every entry sharing the
   minimum timestamp (in insertion order), presents their (seq, tag) pairs
   and lets the chooser pick which fires first. The rest are pushed back
   untouched — their sequence numbers are preserved, so declining to
   reorder reproduces the default schedule exactly. *)

type entry = {
  time : Sim_time.t;
  seq : int;
  tag : int;
  action : unit -> unit;
}

type choice = {
  c_seq : int;
  c_tag : int;
}

type chooser = choice array -> int

type t = {
  heap : entry Heap.t;
  mutable now : Sim_time.t;
  mutable next_seq : int;
  mutable executed : int;
  mutable chooser : chooser option;
}

let dummy_entry = { time = 0; seq = 0; tag = 0; action = ignore }

let compare_entry a b =
  let c = Sim_time.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    heap = Heap.create ~cmp:compare_entry ~dummy:dummy_entry;
    now = 0;
    next_seq = 0;
    executed = 0;
    chooser = None;
  }

let now t = t.now

let executed t = t.executed

let pending t = Heap.length t.heap

let next_seq t = t.next_seq

let next_time t = Option.map (fun e -> e.time) (Heap.peek t.heap)

let set_chooser t chooser = t.chooser <- chooser

let schedule_at ?(tag = 0) t ~time action =
  if Sim_time.compare time t.now < 0 then
    invalid_arg
      (Fmt.str "Event_queue.schedule_at: time %a is in the past (now %a)" Sim_time.pp time
         Sim_time.pp t.now);
  Heap.push t.heap { time; seq = t.next_seq; tag; action };
  t.next_seq <- t.next_seq + 1

let schedule_after ?tag t ~delay action = schedule_at ?tag t ~time:(Sim_time.add t.now delay) action

let exec t entry =
  t.now <- entry.time;
  t.executed <- t.executed + 1;
  entry.action ()

let step t =
  match Heap.pop_opt t.heap with
  | None -> false
  | Some entry -> begin
    match t.chooser with
    | None ->
      exec t entry;
      true
    | Some choose ->
      (* Successive pops at one timestamp arrive in ascending seq, so the
         tied batch is already in insertion order. *)
      let tied = ref [ entry ] in
      let n = ref 1 in
      let more = ref true in
      while !more do
        match Heap.peek t.heap with
        | Some e when Sim_time.compare e.time entry.time = 0 ->
          ignore (Heap.pop_opt t.heap);
          tied := e :: !tied;
          incr n
        | _ -> more := false
      done;
      if !n = 1 then begin
        exec t entry;
        true
      end
      else begin
        let batch = Array.make !n dummy_entry in
        List.iteri (fun i e -> batch.(!n - 1 - i) <- e) !tied;
        let choices = Array.map (fun e -> { c_seq = e.seq; c_tag = e.tag }) batch in
        let pick = choose choices in
        let pick = if pick < 0 || pick >= !n then 0 else pick in
        Array.iteri (fun i e -> if i <> pick then Heap.push t.heap e) batch;
        exec t batch.(pick);
        true
      end
  end

(* Runs until the queue drains. [max_events] guards against engines that
   accidentally schedule forever. *)
let run_to_completion ?(max_events = 2_000_000_000) t =
  let budget = ref max_events in
  while step t do
    decr budget;
    if !budget <= 0 then failwith "Event_queue.run_to_completion: event budget exhausted"
  done

let run_until t ~time =
  let continue = ref true in
  while
    !continue
    &&
    match Heap.peek t.heap with
    | Some entry when Sim_time.compare entry.time time <= 0 -> true
    | _ -> false
  do
    continue := step t
  done;
  if Sim_time.compare t.now time < 0 then t.now <- time
