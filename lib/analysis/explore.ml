(* Bounded schedule exploration over event-queue tie-breaks.

   The DES normally collapses the scheduling freedom of a real
   asynchronous cluster into one canonical order: ties at a timestamp fire
   in insertion order. Every entry now carries a dependence tag (directed
   link / worker, from [Cluster]), and [Event_queue.set_chooser]
   lets us pick which tied entry fires first — so one engine run under one
   chooser is one admissible schedule, and this module enumerates them.

   The exploration is DPOR-flavored: reordering two tied entries from
   *different* dependence classes commutes (they touch disjoint protocol
   state), so the systematic phase only deviates where a tied entry would
   jump ahead of an *earlier entry of its own class* — a real protocol
   race (two arrivals on one link, a retransmit timer vs. the ack it
   races, two deliveries into one worker). Each such (choice point, rank)
   pair seeds a child schedule; children are explored breadth-first under
   a schedule budget, and seeded random walks cover the tail the
   systematic frontier does not reach.

   Every schedule asserts the same three things (via the caller-supplied
   [run] function): no sanitizer/monitor violation, termination, and a
   result fingerprint equal to schedule 0's (which the caller separately
   pins to the sequential oracle). A failing schedule is shrunk by greedy
   decision deletion to a minimal token — a printable "12=1,40=2" string
   that [replay] turns back into the exact failing schedule. *)

type outcome = {
  fingerprint : string;
  violation : string option;
}

type decision = {
  at : int; (* choice-point index within the run *)
  rank : int; (* which tied entry fires first (0 = default) *)
}

type token = decision list

let token_to_string = function
  | [] -> "default"
  | ds -> String.concat "," (List.map (fun d -> Printf.sprintf "%d=%d" d.at d.rank) ds)

let token_of_string s =
  let s = String.trim s in
  if String.equal s "" || String.equal s "default" then Ok []
  else
    try
      let ds =
        List.map
          (fun part ->
            match String.split_on_char '=' (String.trim part) with
            | [ p; r ] -> { at = int_of_string p; rank = int_of_string r }
            | _ -> failwith "part")
          (String.split_on_char ',' s)
      in
      let sorted = List.sort (fun a b -> Int.compare a.at b.at) ds in
      let rec dup = function
        | a :: (b :: _ as rest) -> if a.at = b.at then true else dup rest
        | _ -> false
      in
      if dup sorted then Error (Printf.sprintf "replay token %S repeats a choice point" s)
      else if List.exists (fun d -> d.at < 0 || d.rank < 0) sorted then
        Error (Printf.sprintf "replay token %S has a negative component" s)
      else Ok sorted
    with _ -> Error (Printf.sprintf "cannot parse replay token %S (want \"12=1,40=2\")" s)

(* --- Per-run recording -------------------------------------------------- *)

type recording = {
  mutable points : int; (* choice points hit *)
  mutable max_classes : int; (* most distinct dependence classes at one tie *)
  mutable alts : (int * int list) list; (* point -> meaningful ranks, reversed *)
}

let fresh_recording () = { points = 0; max_classes = 0; alts = [] }

(* Ranks whose entry would jump ahead of an earlier tied entry of its own
   dependence class — the only reorderings that do not commute. *)
let meaningful_ranks (choices : Event_queue.choice array) =
  let n = Array.length choices in
  let out = ref [] in
  for r = n - 1 downto 1 do
    let tag = choices.(r).Event_queue.c_tag in
    let conflicts = ref false in
    for j = 0 to r - 1 do
      if choices.(j).Event_queue.c_tag = tag then conflicts := true
    done;
    if !conflicts then out := r :: !out
  done;
  !out

let distinct_classes (choices : Event_queue.choice array) =
  let n = Array.length choices in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let tag = choices.(i).Event_queue.c_tag in
    let first = ref true in
    for j = 0 to i - 1 do
      if choices.(j).Event_queue.c_tag = tag then first := false
    done;
    if !first then incr count
  done;
  !count

(* Build the chooser for one schedule. [token] pins decisions; [record]
   collects stats + alternatives; [rng] (random-walk mode) deviates at
   unpinned points and appends its picks to [picked]. *)
let make_chooser ?record ?rng ?(walk_bias = 0.3) ~horizon token picked =
  let pinned = Hashtbl.create 8 in
  List.iter (fun d -> Hashtbl.replace pinned d.at d.rank) token;
  let point = ref (-1) in
  fun choices ->
    incr point;
    let p = !point in
    (match record with
    | None -> ()
    | Some r ->
      r.points <- r.points + 1;
      let classes = distinct_classes choices in
      if classes > r.max_classes then r.max_classes <- classes;
      if p < horizon then begin
        match meaningful_ranks choices with
        | [] -> ()
        | ranks -> r.alts <- (p, ranks) :: r.alts
      end);
    match Hashtbl.find_opt pinned p with
    | Some r -> r
    | None -> begin
      match rng with
      | Some rng when p < horizon ->
        (* Walks deviate to *any* rank, not just same-class conflicts:
           they are the coverage net for reorderings the systematic
           phase's commutativity argument prunes away. *)
        let n = Array.length choices in
        if n > 1 && Prng.chance rng walk_bias then begin
          let r = 1 + Prng.int rng (n - 1) in
          picked := { at = p; rank = r } :: !picked;
          r
        end
        else 0
      | _ -> 0
    end

(* --- Exploration -------------------------------------------------------- *)

type counterexample = {
  cx_token : token; (* shrunk *)
  cx_raw : token; (* as first found *)
  cx_detail : string;
  cx_shrink_tries : int;
}

type report = {
  schedules : int; (* engine runs, including shrink replays *)
  choice_points : int; (* max choice points in any one schedule *)
  max_classes : int; (* max distinct dependence classes at one tie *)
  counterexample : counterexample option;
}

type runner = Event_queue.chooser option -> outcome

let run_token ?record ?rng ?walk_bias ~horizon (run : runner) token =
  let picked = ref [] in
  let chooser = make_chooser ?record ?rng ?walk_bias ~horizon token picked in
  let outcome = try run (Some chooser) with exn -> { fingerprint = ""; violation = Some (Printexc.to_string exn) } in
  (outcome, List.rev !picked)

let replay ~run token =
  fst (run_token ~horizon:0 run token)

(* Greedy decision deletion to a locally-minimal failing token. [fails]
   judges a replay (violation or fingerprint divergence). *)
let shrink ~fails ~budget token =
  let tries = ref 0 in
  let still_fails t =
    if !tries >= budget then false
    else begin
      incr tries;
      fails t <> None
    end
  in
  let rec pass t =
    let n = List.length t in
    let rec try_drop i =
      if i >= n then t
      else
        let t' = List.filteri (fun j _ -> j <> i) t in
        if still_fails t' then pass t' else try_drop (i + 1)
    in
    if n = 0 then t else try_drop 0
  in
  let minimal = pass token in
  (minimal, !tries)

let explore ?(budget = 64) ?(random_walks = 16) ?(horizon = 5000) ?(seed = 0x90c) ?walk_bias
    ~(run : runner) () =
  let schedules = ref 0 in
  let choice_points = ref 0 in
  let max_classes = ref 0 in
  let reference = ref None in
  let counterexample = ref None in
  let systematic_budget = max 1 (budget - random_walks) in
  let note_record (r : recording) =
    if r.points > !choice_points then choice_points := r.points;
    if r.max_classes > !max_classes then max_classes := r.max_classes
  in
  let judge token raw outcome =
    match outcome.violation with
    | Some detail -> Some (token, raw, detail)
    | None -> begin
      match !reference with
      | None ->
        reference := Some outcome.fingerprint;
        None
      | Some fp when String.equal fp outcome.fingerprint -> None
      | Some fp ->
        Some
          ( token,
            raw,
            Printf.sprintf "schedule-dependent result: fingerprint %S differs from schedule 0's %S"
              outcome.fingerprint fp )
    end
  in
  let fails token =
    let outcome = replay ~run token in
    incr schedules;
    match outcome.violation with
    | Some d -> Some d
    | None -> begin
      match !reference with
      | Some fp when not (String.equal fp outcome.fingerprint) ->
        Some "schedule-dependent result fingerprint"
      | _ -> None
    end
  in
  let found (token, raw, detail) =
    let shrink_budget = max 8 (budget / 2) in
    let minimal, tries = shrink ~fails ~budget:shrink_budget token in
    counterexample :=
      Some { cx_token = minimal; cx_raw = raw; cx_detail = detail; cx_shrink_tries = tries }
  in
  (* Systematic phase: BFS over single-decision extensions. *)
  let queue = Queue.create () in
  Queue.add [] queue;
  let enqueued = ref 1 in
  while !counterexample = None && !schedules < systematic_budget && not (Queue.is_empty queue) do
    let token = Queue.pop queue in
    let record = fresh_recording () in
    let outcome, _ = run_token ~record ~horizon run token in
    incr schedules;
    note_record record;
    match judge token token outcome with
    | Some cx -> found cx
    | None ->
      (* Extend only past the last pinned point, so each child is a new
         schedule, not a re-exploration of an ancestor's prefix. *)
      let frontier = List.fold_left (fun acc d -> max acc (d.at + 1)) 0 token in
      List.iter
        (fun (p, ranks) ->
          if p >= frontier then
            List.iter
              (fun r ->
                if !enqueued < budget * 8 then begin
                  incr enqueued;
                  Queue.add (token @ [ { at = p; rank = r } ]) queue
                end)
              ranks)
        (List.rev record.alts)
  done;
  (* Random-walk phase: seeded deviations with their picks recorded, so a
     failing walk replays from its token alone. *)
  let walk = ref 0 in
  while !counterexample = None && !walk < random_walks && !schedules < budget do
    let rng = Prng.create (seed + (0x9e3779b9 * !walk)) in
    let record = fresh_recording () in
    let outcome, picked = run_token ~record ~rng ?walk_bias ~horizon run [] in
    incr schedules;
    incr walk;
    note_record record;
    match judge picked picked outcome with
    | Some cx -> found cx
    | None -> ()
  done;
  {
    schedules = !schedules;
    choice_points = !choice_points;
    max_classes = !max_classes;
    counterexample = !counterexample;
  }
