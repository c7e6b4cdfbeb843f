(* A worker quantum's staged traversers (see staging.mli). *)

type group = {
  mutable qid : int;
  mutable step : int;
  travs : Travs.t;
  czs : int Vec.t;
}

let group () = { qid = -1; step = -1; travs = Travs.create (); czs = Vec.create ~dummy:(-1) }

let push g ~cz ~vertex ~step ~weight ~regs =
  Travs.push g.travs ~vertex ~step ~weight ~regs;
  Vec.push g.czs cz

let single g ~qid ~cz ~vertex ~step ~weight ~regs =
  Travs.clear g.travs;
  Vec.clear g.czs;
  g.qid <- qid;
  g.step <- step;
  push g ~cz ~vertex ~step ~weight ~regs

(* [groups.(0 .. n-1)] are staged; the rest are spares from earlier
   quanta. *)
type t = {
  groups : group Vec.t;
  mutable n : int;
}

let create () = { groups = Vec.create ~dummy:(group ()); n = 0 }

(* Newest first: consecutive traversers (a batch's elements) mostly share
   a group. *)
let rec find t ~qid ~step i =
  if i < 0 then begin
    if t.n = Vec.length t.groups then Vec.push t.groups (group ());
    let g = Vec.get t.groups t.n in
    t.n <- t.n + 1;
    g.qid <- qid;
    g.step <- step;
    g
  end
  else begin
    let g = Vec.get t.groups i in
    if g.qid = qid && g.step = step then g else find t ~qid ~step (i - 1)
  end

let add t ~qid ~cz ~vertex ~step ~weight ~regs =
  push (find t ~qid ~step (t.n - 1)) ~cz ~vertex ~step ~weight ~regs

let length t = t.n
let get t i = Vec.get t.groups i

let clear t =
  for i = 0 to t.n - 1 do
    let g = Vec.get t.groups i in
    Travs.clear g.travs;
    Vec.clear g.czs
  done;
  t.n <- 0
