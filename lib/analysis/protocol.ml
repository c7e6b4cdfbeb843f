(* Static protocol specifications and compiled conformance monitors.

   PRs 3-5 grew three interacting distributed protocols — reliable channel
   delivery, mid-query vertex migration, and the tracker lifecycle behind
   Theorem 1's termination rule. Their correctness arguments are state-
   machine arguments ("a sequence number is never delivered twice", "a
   stash is drained exactly once, after install"), so this module states
   each protocol as a declarative state machine and gets two artifacts out
   of one spec:

   - a *static checker* ([check_spec]) proving the spec total: every
     message kind is either handled or explicitly rejected in every
     reachable state, transitions are deterministic, no state is orphaned
     and no send is declared from a terminal state;

   - a *compiled runtime monitor* ([monitor]) — a dense int-indexed
     transition table plus a per-instance state map — that the engines
     feed under [~check:true]. A reject entry reached at runtime is a
     protocol violation with the spec's own explanation attached. With
     [~check:false] no monitor exists and the hooks stay [None], so the
     production path is untouched.

   The specs are data, not code: the checker proves properties about the
   protocol as specified, and the monitor guarantees the implementation
   agrees with that spec on every schedule the explorer tries. *)

type spec = {
  sp_name : string;
  states : string list;
  msgs : string list;
  initial : string;
  terminals : string list;
  trans : (string * string * string) list; (* state, msg -> next state *)
  rejects : (string * string * string) list; (* state, msg -> why illegal *)
  emits : (string * string) list; (* state may send msg *)
}

type defect = {
  d_spec : string;
  d_what : string;
}

let pp_defect ppf d = Fmt.pf ppf "[%s] %s" d.d_spec d.d_what

(* --- Static checker ---------------------------------------------------- *)

let check_spec s =
  let defects = ref [] in
  let bad fmt = Fmt.kstr (fun what -> defects := { d_spec = s.sp_name; d_what = what } :: !defects) fmt in
  let known_state st = List.mem st s.states in
  let known_msg m = List.mem m s.msgs in
  let dup l =
    let rec go seen = function
      | [] -> None
      | x :: rest -> if List.mem x seen then Some x else go (x :: seen) rest
    in
    go [] l
  in
  (match dup s.states with
  | Some st -> bad "state %S declared twice" st
  | None -> ());
  (match dup s.msgs with
  | Some m -> bad "message %S declared twice" m
  | None -> ());
  if not (known_state s.initial) then bad "initial state %S not declared" s.initial;
  List.iter (fun st -> if not (known_state st) then bad "terminal state %S not declared" st) s.terminals;
  List.iter
    (fun (st, m, st') ->
      if not (known_state st) then bad "transition from unknown state %S" st;
      if not (known_msg m) then bad "transition on unknown message %S" m;
      if not (known_state st') then bad "transition to unknown state %S" st')
    s.trans;
  List.iter
    (fun (st, m, _) ->
      if not (known_state st) then bad "reject in unknown state %S" st;
      if not (known_msg m) then bad "reject on unknown message %S" m)
    s.rejects;
  (* Determinism: each (state, msg) resolves one way. *)
  let handled = List.map (fun (st, m, _) -> (st, m)) s.trans @ List.map (fun (st, m, _) -> (st, m)) s.rejects in
  (match dup handled with
  | Some (st, m) -> bad "(%s, %s) handled more than once" st m
  | None -> ());
  (* Terminal closure: the terminal set is absorbing. Environmental
     events may still arrive there (a late delivery after an abandon),
     but they must land on another terminal state, never resurrect the
     instance. *)
  List.iter
    (fun (st, m, st') ->
      if List.mem st s.terminals && not (List.mem st' s.terminals) then
        bad "terminal state %S has transition on %S back to non-terminal %S" st m st')
    s.trans;
  (* Reachability from the initial state over trans. *)
  let reachable = Hashtbl.create 8 in
  let rec visit st =
    if not (Hashtbl.mem reachable st) then begin
      Hashtbl.replace reachable st ();
      List.iter (fun (src, _, dst) -> if String.equal src st then visit dst) s.trans
    end
  in
  if known_state s.initial then visit s.initial;
  List.iter
    (fun st -> if not (Hashtbl.mem reachable st) then bad "state %S is unreachable" st)
    s.states;
  (* Total coverage: every message is handled or rejected in every
     reachable state — the "every message kind handled in every reachable
     state" proof obligation. *)
  List.iter
    (fun st ->
      if Hashtbl.mem reachable st then
        List.iter
          (fun m -> if not (List.mem (st, m) handled) then bad "(%s, %s) is neither handled nor rejected" st m)
          s.msgs)
    s.states;
  (* No send from a terminal state, and every declared send is a legal
     transition of its own machine. *)
  List.iter
    (fun (st, m) ->
      if not (known_state st) then bad "emit from unknown state %S" st;
      if not (known_msg m) then bad "emit of unknown message %S" m;
      if List.mem st s.terminals then bad "terminal state %S declares a send of %S" st m;
      if not (List.exists (fun (st', m', _) -> String.equal st st' && String.equal m m') s.trans) then
        bad "emit (%s, %s) has no matching transition" st m)
    s.emits;
  List.rev !defects

(* --- Compilation -------------------------------------------------------

   States and messages become dense ints; the transition function becomes
   a [n_states * n_msgs] array of outcomes. An instance is one int. *)

type outcome =
  | Next of int
  | Reject of string

type compiled = {
  c_name : string;
  state_names : string array;
  msg_names : string array;
  c_initial : int;
  terminal : bool array;
  table : outcome array; (* state * n_msgs + msg *)
}

let compile s =
  (match check_spec s with
  | [] -> ()
  | ds ->
    invalid_arg
      (Fmt.str "Protocol.compile %s: %a" s.sp_name (Fmt.list ~sep:Fmt.semi pp_defect) ds));
  let state_names = Array.of_list s.states in
  let msg_names = Array.of_list s.msgs in
  let n_states = Array.length state_names in
  let n_msgs = Array.length msg_names in
  let state_id st =
    let rec go i = if String.equal state_names.(i) st then i else go (i + 1) in
    go 0
  in
  let msg_id m =
    let rec go i = if String.equal msg_names.(i) m then i else go (i + 1) in
    go 0
  in
  let table =
    Array.make (n_states * n_msgs)
      (Reject "unreachable state: statically proven never entered")
  in
  List.iter (fun (st, m, st') -> table.((state_id st * n_msgs) + msg_id m) <- Next (state_id st')) s.trans;
  List.iter (fun (st, m, why) -> table.((state_id st * n_msgs) + msg_id m) <- Reject why) s.rejects;
  let terminal = Array.map (fun st -> List.mem st s.terminals) state_names in
  { c_name = s.sp_name; state_names; msg_names; c_initial = state_id s.initial; terminal; table }

let msg c name =
  let rec go i =
    if i >= Array.length c.msg_names then invalid_arg (Fmt.str "Protocol.msg %s: unknown %S" c.c_name name)
    else if String.equal c.msg_names.(i) name then i
    else go (i + 1)
  in
  go 0

(* --- Runtime monitor ---------------------------------------------------- *)

type monitor = {
  compiled : compiled;
  instances : (int, int) Hashtbl.t; (* instance key -> state id *)
}

let monitor compiled = { compiled; instances = Hashtbl.create 64 }

let spec_name m = m.compiled.c_name

let step m ~key ~msg =
  let c = m.compiled in
  let state = match Hashtbl.find_opt m.instances key with Some st -> st | None -> c.c_initial in
  match c.table.((state * Array.length c.msg_names) + msg) with
  | Next st' ->
    Hashtbl.replace m.instances key st';
    None
  | Reject why ->
    Some
      (Fmt.str "%s: message %S in state %S — %s" c.c_name c.msg_names.(msg) c.state_names.(state)
         why)

(* All touched instances must sit in a terminal state once the run drains
   (callers gate this on "no deadline truncation, nothing abandoned"). *)
let finish m =
  let stuck =
    (* det-ok: fold result is sorted by key before the first is reported *)
    Hashtbl.fold
      (fun key st acc -> if m.compiled.terminal.(st) then acc else (key, st) :: acc)
      m.instances []
  in
  match List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) stuck with
  | [] -> None
  | (key, st) :: rest ->
    Some
      (Fmt.str "%s: instance %d finished in non-terminal state %S (%d stuck in total)"
         m.compiled.c_name key
         m.compiled.state_names.(st)
         (List.length rest + 1))

let instances m = Hashtbl.length m.instances

(* --- The three protocol specs ------------------------------------------ *)

(* Reliable channel delivery, one instance per (link, sequence number).
   Mirrors lib/sim/channel.ml's fault-plane path: a packet is sent once,
   retransmitted on ack timeout, delivered exactly once (dedup window),
   acked every time it arrives, and abandoned after the retry budget.
   Late arrivals after an abandon are legal (the wire does not know the
   sender gave up); a second *delivery* never is. *)
let channel_spec =
  {
    sp_name = "channel";
    states = [ "start"; "inflight"; "delivered"; "acked"; "abandoned_sent"; "abandoned_dlv" ];
    msgs = [ "send"; "retransmit"; "deliver"; "dup"; "ack"; "abandon" ];
    initial = "start";
    terminals = [ "acked"; "abandoned_sent"; "abandoned_dlv" ];
    trans =
      [
        ("start", "send", "inflight");
        ("inflight", "retransmit", "inflight");
        ("inflight", "deliver", "delivered");
        ("inflight", "abandon", "abandoned_sent");
        ("delivered", "retransmit", "delivered"); (* ack lost, sender re-sends *)
        ("delivered", "dup", "delivered"); (* the re-send arrives, dedup holds *)
        ("delivered", "ack", "acked");
        ("delivered", "abandon", "abandoned_dlv"); (* all acks lost *)
        ("acked", "dup", "acked"); (* ghost duplicate trailing the ack *)
        ("acked", "ack", "acked"); (* dup's ack *)
        ("abandoned_sent", "deliver", "abandoned_dlv"); (* late arrival *)
        ("abandoned_dlv", "dup", "abandoned_dlv");
        ("abandoned_dlv", "ack", "abandoned_dlv");
      ];
    rejects =
      [
        ("start", "retransmit", "retransmit before first send");
        ("start", "deliver", "delivery of a never-sent sequence number");
        ("start", "dup", "duplicate of a never-sent sequence number");
        ("start", "ack", "ack of a never-sent sequence number");
        ("start", "abandon", "abandon of a never-sent sequence number");
        ("inflight", "send", "sequence number assigned twice");
        ("inflight", "dup", "duplicate verdict before any delivery: dedup state corrupt");
        ("inflight", "ack", "ack before any delivery");
        ("delivered", "send", "sequence number assigned twice");
        ("delivered", "deliver", "second delivery of one sequence number: dedup window bypassed");
        ("acked", "send", "sequence number assigned twice");
        ("acked", "retransmit", "retransmit after the ack came back");
        ("acked", "deliver", "delivery after ack: dedup window bypassed");
        ("acked", "abandon", "abandon after the ack came back");
        ("abandoned_sent", "send", "sequence number assigned twice");
        ("abandoned_sent", "retransmit", "retransmit after abandoning");
        ("abandoned_sent", "dup", "duplicate verdict before any delivery: dedup state corrupt");
        ("abandoned_sent", "ack", "ack before any delivery");
        ("abandoned_sent", "abandon", "abandoned twice");
        ("abandoned_dlv", "send", "sequence number assigned twice");
        ("abandoned_dlv", "retransmit", "retransmit after abandoning");
        ("abandoned_dlv", "deliver", "second delivery of one sequence number: dedup window bypassed");
        ("abandoned_dlv", "abandon", "abandoned twice");
      ];
    emits = [ ("start", "send"); ("inflight", "retransmit"); ("delivered", "retransmit") ];
  }

(* Mid-query vertex migration, one instance per migrated vertex. Mirrors
   the async engine's adaptive path: a refinement round orders the move,
   the old owner extracts memo entries into [P_migrate_data], racing
   traversers stash (at the old owner) or forward until the install, and
   the install drains the stash exactly once. *)
let migration_spec =
  {
    sp_name = "migration";
    states = [ "start"; "ordered"; "data_inflight"; "installed" ];
    msgs = [ "order"; "extract"; "stash"; "forward"; "install" ];
    initial = "start";
    terminals = [ "installed" ];
    trans =
      [
        ("start", "order", "ordered");
        ("ordered", "extract", "data_inflight");
        ("ordered", "stash", "ordered"); (* traverser raced the P_migrate *)
        ("ordered", "forward", "ordered");
        ("data_inflight", "stash", "data_inflight");
        ("data_inflight", "forward", "data_inflight");
        ("data_inflight", "install", "installed");
        ("installed", "forward", "installed"); (* post-install routing is plain dispatch *)
      ];
    rejects =
      [
        ("start", "extract", "memo extraction for a vertex never ordered to move");
        ("start", "stash", "stash for a vertex never ordered to move");
        ("start", "forward", "forward for a vertex never ordered to move");
        ("start", "install", "install for a vertex never ordered to move");
        ("ordered", "order", "vertex ordered to migrate twice: anti-thrash rule broken");
        ("ordered", "install", "install before the old owner extracted its entries");
        ("data_inflight", "order", "vertex ordered to migrate twice: anti-thrash rule broken");
        ("data_inflight", "extract", "memo entries extracted twice");
        ("installed", "order", "vertex ordered to migrate twice: anti-thrash rule broken");
        ("installed", "extract", "memo entries extracted after install");
        ("installed", "stash", "stash after the install drained it: that traverser is lost");
        ("installed", "install", "installed twice");
      ];
    emits = [ ("start", "order"); ("ordered", "extract") ];
  }

(* Tracker lifecycle, one instance per (query, phase). Mirrors Progress +
   the coordinator: the tracker registers at query launch, accumulates
   finished-weight receipts, completes exactly when Theorem 1's sum
   closes, and is released exactly once; a deadline may time it out from
   any live state. *)
let tracker_spec =
  {
    sp_name = "tracker";
    states = [ "start"; "open"; "complete"; "released"; "timedout" ];
    msgs = [ "register"; "receive"; "complete"; "release"; "timeout" ];
    initial = "start";
    terminals = [ "released"; "timedout" ];
    trans =
      [
        ("start", "register", "open");
        ("start", "timeout", "timedout"); (* deadline before launch *)
        ("open", "receive", "open");
        ("open", "complete", "complete");
        ("open", "timeout", "timedout");
        ("complete", "release", "released");
        ("complete", "timeout", "timedout"); (* deadline between completion and reclaim *)
      ];
    rejects =
      [
        ("start", "receive", "weight receipt before the tracker registered");
        ("start", "complete", "completion before the tracker registered");
        ("start", "release", "release before the tracker registered");
        ("open", "register", "tracker registered twice");
        ("open", "release", "release before Theorem 1's conservation sum closed");
        ("complete", "register", "tracker registered twice");
        ("complete", "receive", "weight receipt after completion: some weight was double-counted");
        ("complete", "complete", "completed twice");
        ("released", "register", "tracker registered twice");
        ("released", "receive", "weight receipt after release");
        ("released", "complete", "completion after release");
        ("released", "release", "released twice");
        ("released", "timeout", "timeout after release");
        ("timedout", "register", "tracker registered after timing out");
        ("timedout", "receive", "weight receipt after timing out");
        ("timedout", "complete", "completion after timing out");
        ("timedout", "release", "release after timing out");
        ("timedout", "timeout", "timed out twice");
      ];
    emits = [ ("open", "receive") ];
  }

let all_specs = [ channel_spec; migration_spec; tracker_spec ]

let channel = lazy (compile channel_spec)
let migration = lazy (compile migration_spec)
let tracker = lazy (compile tracker_spec)
