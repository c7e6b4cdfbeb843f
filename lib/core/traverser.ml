(* Traversers: the 4-tuple (v, psi, pi, w) of §III-B.

   [vertex] is the current position, [step] the index of the next step to
   execute, [regs] the local-variable file (pi) and [weight] the
   progression weight used for termination detection. Registers are
   copy-on-write: spawning shares the parent's array unless the child
   writes. The engines' hot paths keep traversers as lanes ({!Travs});
   the record serves the engines that queue them. *)

type t = {
  vertex : int;
  step : int;
  weight : Weight.t;
  regs : Value.t array;
}

let make ~vertex ~step ~weight ~n_registers =
  { vertex; step; weight; regs = Array.make n_registers Value.Null }

let set_reg t reg value =
  let regs = Array.copy t.regs in
  regs.(reg) <- value;
  { t with regs }

(* Estimated serialized size when the traverser migrates to another
   partition: vertex + step + weight + register payload. *)
let wire_bytes regs = 20 + Array.fold_left (fun acc v -> acc + Value.bytes v) 0 regs

let bytes t = wire_bytes t.regs

let pp ppf t =
  Fmt.pf ppf "t(v=%d psi=%d %a [%a])" t.vertex t.step Weight.pp t.weight
    (Fmt.array ~sep:(Fmt.any ",") Value.pp)
    t.regs
