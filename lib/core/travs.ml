(* Traversers as lanes (see the interface). The four lanes always have
   the same capacity and double together; slots past [len] hold 0 and
   the empty register file, so dropped elements leak nothing. *)

type t = {
  mutable vertices : int array;
  mutable steps : int array;
  mutable weights : Weight.t array;
  mutable regs : Value.t array array;
  mutable len : int;
}

let create () = { vertices = [||]; steps = [||]; weights = [||]; regs = [||]; len = 0 }
let length t = t.len

let grow t =
  let cap = max 8 (2 * t.len) in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.vertices <- widen t.vertices 0;
  t.steps <- widen t.steps 0;
  t.weights <- widen t.weights Weight.zero;
  t.regs <- widen t.regs [||]

let push t ~vertex ~step ~weight ~regs =
  if t.len = Array.length t.vertices then grow t;
  let i = t.len in
  t.vertices.(i) <- vertex;
  t.steps.(i) <- step;
  t.weights.(i) <- weight;
  t.regs.(i) <- regs;
  t.len <- i + 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Travs: index out of bounds"

let vertex t i =
  check t i;
  t.vertices.(i)

let step t i =
  check t i;
  t.steps.(i)

let weight t i =
  check t i;
  t.weights.(i)

let regs t i =
  check t i;
  t.regs.(i)

let get t i =
  check t i;
  { Traverser.vertex = t.vertices.(i); step = t.steps.(i); weight = t.weights.(i);
    regs = t.regs.(i) }

let total_weight t =
  let sum = ref Weight.zero in
  for i = 0 to t.len - 1 do
    sum := Weight.add !sum t.weights.(i)
  done;
  !sum

let move t ~src ~dst =
  check t src;
  check t dst;
  t.vertices.(dst) <- t.vertices.(src);
  t.steps.(dst) <- t.steps.(src);
  t.weights.(dst) <- t.weights.(src);
  t.regs.(dst) <- t.regs.(src)

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Travs.truncate";
  Array.fill t.regs n (t.len - n) [||];
  t.len <- n

let clear t = truncate t 0
