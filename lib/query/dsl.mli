(** Fluent Gremlin-style query combinators.

    {[
      Dsl.(
        v ()
        |> has "id" (eq (int 42))
        |> repeat_out "knows" ~times:2
        |> has "id" (ne (int 42))
        |> top_k "weight" 10
        |> build "k-hop-influencers")
    ]}

    Pair the resulting AST with {!Compile.compile} to obtain a runnable
    program. *)

type t

(** {2 Values and predicates} *)

val int : int -> Value.t
val str : string -> Value.t
val float : float -> Value.t
val bool : bool -> Value.t
val eq : Value.t -> Ast.pred
val ne : Value.t -> Ast.pred
val lt : Value.t -> Ast.pred
val lte : Value.t -> Ast.pred
val gt : Value.t -> Ast.pred
val gte : Value.t -> Ast.pred
val within : Value.t list -> Ast.pred

(** {2 Sources} *)

(** [g.V()], optionally label-restricted. *)
val v : ?label:string -> unit -> t

(** Index lookup on a property value. *)
val v_lookup : ?label:string -> key:string -> Value.t -> t

(** {2 Steps} *)

val out : ?label:string -> unit -> t -> t
val out_ : string -> t -> t
val in_ : string -> t -> t
val has_label : string -> t -> t
val has : string -> Ast.pred -> t -> t
val where_neq : string -> t -> t
val dedup : t -> t
val as_ : string -> t -> t
val select : string -> t -> t
val values : string -> t -> t

(** Memo-deduplicated multi-hop expansion (the Figure 1 k-hop). *)
val repeat : ?dir:Graph.direction -> ?label:string -> times:int -> unit -> t -> t

val repeat_out : string -> times:int -> t -> t
val count : t -> t
val sum : string -> t -> t
val group_count : string -> t -> t

(** Descending top-k by a property, ties by vertex id. *)
val top_k : string -> int -> t -> t

val limit : int -> t -> t

(** {2 Finishers} *)

val traversal : t -> Ast.traversal
val build : t -> Ast.t

(** Join two traversals at their final vertex; [post] continues from the
    join vertex. *)
val join : ?post:(t -> t) -> t -> t -> Ast.t
