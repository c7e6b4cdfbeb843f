(** A parameterised LDBC read query, compiled once per dataset and bound
    to fresh parameter values per submission. *)

type body =
  | Dsl of (Value.t array -> Ast.t)
      (** the query's AST with [values.(i)] as its parameter [i]; it
          must not branch on a value *)
  | Isa of (Snb_gen.t -> Value.t array -> Program.t)
      (** a program hand-built on the step ISA and verified *)

type t = {
  name : string;
  params : int;
  draw : Snb_gen.t -> Prng.t -> Value.t array;
      (** staged: applying it to a dataset builds its name tables once;
          applying the result to a PRNG draws [params] values *)
  body : body;
}

(** The full compile of the query with these parameter values. *)
val compile : t -> Snb_gen.t -> Value.t array -> Program.t

(** [prepare q d] compiles and verifies [q] once on [d]; applying the
    result to a PRNG draws the parameters and binds them, and the
    program equals [compile q d (q.draw d prng)]. *)
val prepare : t -> Snb_gen.t -> Prng.t -> Program.t
