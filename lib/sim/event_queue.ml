(* Discrete-event scheduler.

   A binary min-heap on (time, seq); the insertion sequence number is the
   explicit tie-break key: events scheduled at equal times fire in
   schedule order, which makes whole-cluster simulations fully
   deterministic. Engines drive the simulation by scheduling closures and
   calling [run_to_completion].

   The heap is struct-of-arrays: slot [i] is ([times.(i)], [seqs.(i)],
   [tags.(i)], [thunks.(i)], [calls.(i)], [args.(i)]). An entry is either
   a unit thunk ([schedule_at]; its call is [no_call]) or a call of an
   [int -> unit] action on its int argument ([schedule_call]; its thunk
   is [ignore]). The argument lets one prebuilt action serve every
   entry — a packet's arrival fires the channel's one delivery action on
   the packet's first message handle — where a thunk would be a fresh
   closure per entry. There is no entry record, the tag is a plain int,
   and [step] reads the root in place, so scheduling and firing either
   kind allocates nothing once the arrays have grown.

   Same-timestamp ties are the only scheduling freedom a real asynchronous
   cluster has that the DES normally collapses; [set_chooser] re-opens it.
   When a chooser is installed, [step] gathers every entry sharing the
   minimum timestamp (in insertion order), presents their (seq, tag) pairs
   and lets the chooser pick which fires first. The rest are pushed back
   untouched — their sequence numbers are preserved, so declining to
   reorder reproduces the default schedule exactly. *)

type choice = {
  c_seq : int;
  c_tag : int;
}

type chooser = choice array -> int

(* The call of a thunk entry; never fired. *)
let no_call (_ : int) = ()

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable tags : int array;
  mutable thunks : (unit -> unit) array;
  mutable calls : (int -> unit) array;
  mutable args : int array;
  mutable len : int;
  mutable now : Sim_time.t;
  mutable next_seq : int;
  mutable executed : int;
  mutable chooser : chooser option;
}

let create () =
  {
    times = [||];
    seqs = [||];
    tags = [||];
    thunks = [||];
    calls = [||];
    args = [||];
    len = 0;
    now = 0;
    next_seq = 0;
    executed = 0;
    chooser = None;
  }

let now t = t.now

let executed t = t.executed

let pending t = t.len

let next_seq t = t.next_seq

let next_time t = if t.len = 0 then None else Some t.times.(0)

let set_chooser t chooser = t.chooser <- chooser

let grow t =
  let cap = max 8 (2 * Array.length t.times) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.tags <- extend t.tags 0;
  t.thunks <- extend t.thunks ignore;
  t.calls <- extend t.calls no_call;
  t.args <- extend t.args 0

let[@inline] before (time_a : int) (seq_a : int) time_b seq_b =
  time_a < time_b || (time_a = time_b && seq_a < seq_b)

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.tags.(dst) <- t.tags.(src);
  t.thunks.(dst) <- t.thunks.(src);
  t.calls.(dst) <- t.calls.(src);
  t.args.(dst) <- t.args.(src)

(* Insert with an explicit seq: fresh from [schedule_at] /
   [schedule_call], or the entry's own seq when the chooser path pushes
   an unpicked entry back. *)
let push t ~time ~seq ~tag thunk call arg =
  if t.len = Array.length t.times then grow t;
  let i = ref t.len in
  t.len <- t.len + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before time seq t.times.(parent) t.seqs.(parent)
  do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.tags.(!i) <- tag;
  t.thunks.(!i) <- thunk;
  t.calls.(!i) <- call;
  t.args.(!i) <- arg

(* Drop the root: the last slot sifts down from the top. *)
let remove_root t =
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let time = t.times.(n) and seq = t.seqs.(n) in
    let tag = t.tags.(n) and thunk = t.thunks.(n) in
    let call = t.calls.(n) and arg = t.args.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && before t.times.(r) t.seqs.(r) t.times.(l) t.seqs.(l) then r else l
        in
        if before t.times.(c) t.seqs.(c) time seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.tags.(!i) <- tag;
    t.thunks.(!i) <- thunk;
    t.calls.(!i) <- call;
    t.args.(!i) <- arg
  end;
  t.thunks.(n) <- ignore;
  t.calls.(n) <- no_call

let schedule t ~time ~tag thunk call arg =
  if Sim_time.compare time t.now < 0 then
    invalid_arg
      (Fmt.str "Event_queue.schedule: time %a is in the past (now %a)" Sim_time.pp time
         Sim_time.pp t.now);
  push t ~time ~seq:t.next_seq ~tag thunk call arg;
  t.next_seq <- t.next_seq + 1

let schedule_at t ~time ~tag thunk = schedule t ~time ~tag thunk no_call 0
let schedule_call t ~time ~tag call arg = schedule t ~time ~tag ignore call arg

let schedule_after t ~delay ~tag action = schedule_at t ~time:(Sim_time.add t.now delay) ~tag action

let fire t ~time thunk call arg =
  t.now <- time;
  t.executed <- t.executed + 1;
  if call == no_call then thunk () else call arg

(* Chooser path: pop the tied batch (successive pops at one timestamp
   arrive in ascending seq, so it is already in insertion order), let the
   chooser pick, and push the rest back with their own seqs. *)
let step_choosing t choose =
  let time = t.times.(0) in
  let seqs = Vec.create ~dummy:0 and tags = Vec.create ~dummy:0 in
  let thunks = Vec.create ~dummy:ignore and calls = Vec.create ~dummy:no_call in
  let args = Vec.create ~dummy:0 in
  while t.len > 0 && t.times.(0) = time do
    Vec.push seqs t.seqs.(0);
    Vec.push tags t.tags.(0);
    Vec.push thunks t.thunks.(0);
    Vec.push calls t.calls.(0);
    Vec.push args t.args.(0);
    remove_root t
  done;
  let n = Vec.length seqs in
  let pick =
    if n = 1 then 0
    else
      let choices = Array.init n (fun i -> { c_seq = Vec.get seqs i; c_tag = Vec.get tags i }) in
      let pick = choose choices in
      if pick < 0 || pick >= n then 0 else pick
  in
  for i = 0 to n - 1 do
    if i <> pick then
      push t ~time ~seq:(Vec.get seqs i) ~tag:(Vec.get tags i) (Vec.get thunks i)
        (Vec.get calls i) (Vec.get args i)
  done;
  fire t ~time (Vec.get thunks pick) (Vec.get calls pick) (Vec.get args pick)

let step t =
  if t.len = 0 then false
  else begin
    (match t.chooser with
    | None ->
      let time = t.times.(0) and thunk = t.thunks.(0) in
      let call = t.calls.(0) and arg = t.args.(0) in
      remove_root t;
      fire t ~time thunk call arg
    | Some choose -> step_choosing t choose);
    true
  end

(* Runs until the queue drains. [max_events] guards against engines that
   accidentally schedule forever: it raises only when events are still
   pending after [max_events] have run. *)
let run_to_completion ?(max_events = 2_000_000_000) t =
  let budget = ref max_events in
  while t.len > 0 do
    if !budget <= 0 then failwith "Event_queue.run_to_completion: event budget exhausted";
    decr budget;
    ignore (step t : bool)
  done

let run_until t ~time =
  while t.len > 0 && Sim_time.compare t.times.(0) time <= 0 do
    ignore (step t : bool)
  done;
  if Sim_time.compare t.now time < 0 then t.now <- time
