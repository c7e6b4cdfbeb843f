(* A parameterised LDBC read query: how its parameters are drawn and how
   its program is built from them.

   A query is prepared once per dataset: its program is compiled and
   verified with a marker per parameter, and each submission only draws
   the parameter values and binds them (Program.bind). [compile] is the
   full compile of the same query, kept for the tests that show every
   binding equal to it. *)

type body =
  | Dsl of (Value.t array -> Ast.t)
  | Isa of (Snb_gen.t -> Value.t array -> Program.t)

type t = {
  name : string;
  params : int;
  draw : Snb_gen.t -> Prng.t -> Value.t array;
  body : body;
}

let compile q (d : Snb_gen.t) values =
  match q.body with
  | Dsl query -> Compile.compile ~name:q.name d.Snb_gen.graph (query values)
  | Isa build -> build d values

let prepare q (d : Snb_gen.t) =
  let bind =
    match q.body with
    | Dsl query -> Compile.prepare ~name:q.name d.Snb_gen.graph ~params:q.params query
    | Isa build ->
      Program.bind (Program.template ~params:q.params (build d (Array.init q.params Program.param)))
  in
  let draw = q.draw d in
  fun prng -> bind (draw prng)
