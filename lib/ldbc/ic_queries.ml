(* The 14 LDBC SNB Interactive Complex queries, adapted to the PSTM
   operator set.

   Each query keeps the defining operator mix of its LDBC original —
   multi-hop friendship expansion, filtering, deduplication, join,
   aggregation, top-k — expressed through the Gremlin-like DSL (IC13/IC14
   drive the core API directly, since shortest-path needs the Visit
   distance register). Parameters are drawn deterministically from the
   generated dataset by the supplied generator, mirroring LDBC's
   parameter curation.

   Each query is a Read_query.t: applying it to a dataset compiles its
   shape once, with a marker per parameter, and applying the result to
   a PRNG draws the parameters (in a fixed order: the person first) and
   binds them. *)

open Dsl

let query name ~params draw body = { Read_query.name; params; draw; body = Read_query.Dsl body }
let person p = v_lookup ~label:Snb_schema.person ~key:"id" p

(* Parameter draws. Each is staged on the dataset, so name tables are
   built once per dataset, not formatted per draw. No array literal
   holds two draws: OCaml leaves the evaluation order of its elements
   open, and the draws must keep their order. *)
let draw_person (d : Snb_gen.t) =
  let n = Array.length d.Snb_gen.persons in
  fun prng -> int (Prng.int prng n)

let first_names = Array.map str Snb_gen.first_names
let names prefix n = Array.init n (fun i -> str (Fmt.str "%s_%d" prefix i))
let some_date prng = Prng.int_in_range prng ~lo:Snb_gen.date_lo ~hi:Snb_gen.date_hi

let only_person d =
  let person = draw_person d in
  fun prng -> [| person prng |]

let person_and_date d =
  let person = draw_person d in
  fun prng ->
    let pid = person prng in
    [| pid; int (some_date prng) |]

let person_and_country d =
  let person = draw_person d in
  let countries = names "Country" (Array.length d.Snb_gen.countries) in
  fun prng ->
    let pid = person prng in
    [| pid; Prng.pick prng countries |]

let person_and_tag d =
  let person = draw_person d in
  let tags = names "Tag" (Array.length d.Snb_gen.tags) in
  fun prng ->
    let pid = person prng in
    [| pid; Prng.pick prng tags |]

let two_persons d =
  let person = draw_person d in
  fun prng ->
    let p1 = person prng in
    [| p1; person prng |]

(* IC1: friends (<=3 hops) with a given first name, ranked. *)
let ic1_query =
  query "IC1" ~params:2
    (fun d ->
      let person = draw_person d in
      fun prng ->
        let pid = person prng in
        [| pid; Prng.pick prng first_names |])
    (fun p ->
      person p.(0) |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:3
      |> where_neq "p"
      |> has "firstName" (eq p.(1))
      |> top_k "birthday" 20 |> build)

(* IC2: recent messages by direct friends, newest first. *)
let ic2_query =
  query "IC2" ~params:2 person_and_date (fun p ->
      person p.(0)
      |> out_ Snb_schema.knows
      |> in_ Snb_schema.has_creator
      |> has "creationDate" (lte p.(1))
      |> top_k "creationDate" 20 |> build)

(* IC3: messages of 2-hop friends located in a given country. *)
let ic3_query =
  query "IC3" ~params:2 person_and_country (fun p ->
      person p.(0) |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:2
      |> where_neq "p"
      |> in_ Snb_schema.has_creator
      |> out_ Snb_schema.is_located_in
      |> has "name" (eq p.(1))
      |> count |> build)

(* IC4: tags of friends' posts in a date window, with counts. *)
let ic4_query =
  query "IC4" ~params:3
    (fun d ->
      let person = draw_person d in
      fun prng ->
        let pid = person prng in
        let d1 = some_date prng in
        [| pid; int d1; int (min Snb_gen.date_hi (d1 + 200)) |])
    (fun p ->
      person p.(0)
      |> out_ Snb_schema.knows
      |> in_ Snb_schema.has_creator
      |> has_label Snb_schema.post
      |> has "creationDate" (gte p.(1))
      |> has "creationDate" (lte p.(2))
      |> out_ Snb_schema.has_tag
      |> group_count "name" |> build)

(* IC5: forums that 2-hop friends belong to, by membership count. *)
let ic5_query =
  query "IC5" ~params:1 only_person (fun p ->
      person p.(0) |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:2
      |> where_neq "p"
      |> in_ Snb_schema.has_member
      |> group_count "title" |> build)

(* IC6: tags co-occurring with a given tag on 2-hop friends' posts — the
   Figure 3 pattern; the cost-based planner decides between bidirectional
   join and unidirectional expansion. The tag is parameter 1 twice: the
   right side's lookup and the continuation's filter. *)
let ic6_parts p =
  let left =
    Dsl.traversal
      (person p.(0) |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:2
      |> where_neq "p"
      |> in_ Snb_schema.has_creator
      |> has_label Snb_schema.post)
  in
  let right =
    Dsl.traversal
      (v_lookup ~label:Snb_schema.tag ~key:"name" p.(1)
      |> in_ Snb_schema.has_tag
      |> has_label Snb_schema.post)
  in
  let post_steps =
    [ Ast.Out (Some Snb_schema.has_tag); Ast.Has ("name", Ast.Ne p.(1)); Ast.Group_count "name" ]
  in
  (left, right, post_steps)

let ic6_sides d prng = ic6_parts (person_and_tag d prng)

let ic6_query =
  query "IC6" ~params:2 person_and_tag (fun p ->
      let left, right, post = ic6_parts p in
      Ast.Join_of { left; right; post })

(* IC7: people who liked this person's messages, most recent first. *)
let ic7_query =
  query "IC7" ~params:1 only_person (fun p ->
      person p.(0)
      |> in_ Snb_schema.has_creator
      |> in_ Snb_schema.likes
      |> top_k "creationDate" 20 |> build)

(* IC8: recent replies to this person's messages. *)
let ic8_query =
  query "IC8" ~params:1 only_person (fun p ->
      person p.(0)
      |> in_ Snb_schema.has_creator
      |> in_ Snb_schema.reply_of
      |> top_k "creationDate" 20 |> build)

(* IC9: recent messages by friends within 2 hops before a date. *)
let ic9_query =
  query "IC9" ~params:2 person_and_date (fun p ->
      person p.(0) |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:2
      |> where_neq "p"
      |> in_ Snb_schema.has_creator
      |> has "creationDate" (lt p.(1))
      |> top_k "creationDate" 20 |> build)

(* IC10: friend-of-friend recommendation by birthday window. *)
let ic10_query =
  query "IC10" ~params:3
    (fun d ->
      let person = draw_person d in
      fun prng ->
        let pid = person prng in
        let b1 = Prng.int_in_range prng ~lo:3_000 ~hi:10_000 in
        [| pid; int b1; int (b1 + 1_000) |])
    (fun p ->
      person p.(0) |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:2
      |> where_neq "p"
      |> has "birthday" (gte p.(1))
      |> has "birthday" (lte p.(2))
      |> top_k "creationDate" 10 |> build)

(* IC11: 2-hop friends working at companies in a given country. *)
let ic11_query =
  query "IC11" ~params:2 person_and_country (fun p ->
      person p.(0) |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:2
      |> where_neq "p"
      |> out_ Snb_schema.work_at
      |> out_ Snb_schema.is_located_in
      |> has "name" (eq p.(1))
      |> count |> build)

(* IC12: expert search — tags of posts that friends commented on. *)
let ic12_query =
  query "IC12" ~params:1 only_person (fun p ->
      person p.(0)
      |> out_ Snb_schema.knows
      |> in_ Snb_schema.has_creator
      |> has_label Snb_schema.comment
      |> out_ Snb_schema.reply_of
      |> out_ Snb_schema.has_tag
      |> group_count "name" |> build)

(* IC13: shortest path length between two persons. Built directly on the
   step ISA: the Visit distance register is the answer. *)
let ic13_program (d : Snb_gen.t) p =
  let schema = Graph.schema d.Snb_gen.graph in
  let id_key = Schema.property_key_exn schema "id" in
  let person_l = Schema.vertex_label_exn schema Snb_schema.person in
  let knows_l = Schema.edge_label_exn schema Snb_schema.knows in
  let steps =
    [|
      { Step.op =
          Step.Index_lookup { vertex_label = Some person_l; key = id_key; value = p.(0) };
        next = 1 };
      { Step.op = Step.Set_reg { reg = 0; expr = Step.Const (Value.Int 0) }; next = 2 };
      { Step.op = Step.Visit { dist_reg = 0; max_hops = 4; cont = 4; emit_improved = true }; next = 3 };
      { Step.op = Step.Expand { dir = Graph.Out; edge_label = Some knows_l }; next = 2 };
      { Step.op =
          Step.Filter
            (Step.And
               ( Step.Cmp (Step.Eq, Step.Vertex_label, Step.Const (Value.Int person_l)),
                 Step.Cmp (Step.Eq, Step.Prop id_key, Step.Const p.(1)) ));
        next = 5 };
      { Step.op = Step.Aggregate { agg = Step.Min (Step.Reg 0); reg = 1 }; next = 6 };
      { Step.op = Step.Emit [| Step.Reg 1 |]; next = -1 };
    |]
  in
  (* Hand-built on the raw ISA, so run it through the static verifier the
     same way Compile.finish does for DSL-compiled programs. *)
  Pstm_analysis.Verify.program_exn (Program.make ~name:"IC13" ~steps ~n_registers:2 ~entries:[| 0 |])

let ic13_query = { Read_query.name = "IC13"; params = 2; draw = two_persons; body = Read_query.Isa ic13_program }

(* IC14: interaction paths — 2-hop friends adjacent to the second person
   (a path count between the endpoints). *)
let ic14_query =
  query "IC14" ~params:2 two_persons (fun p ->
      person p.(0)
      |> as_ "p"
      |> repeat_out Snb_schema.knows ~times:2
      |> where_neq "p"
      |> out_ Snb_schema.knows
      |> has_label Snb_schema.person
      |> has "id" (eq p.(1))
      |> count |> build)

let queries =
  [
    ic1_query; ic2_query; ic3_query; ic4_query; ic5_query; ic6_query; ic7_query; ic8_query;
    ic9_query; ic10_query; ic11_query; ic12_query; ic13_query; ic14_query;
  ]

let ic1 = Read_query.prepare ic1_query
let ic2 = Read_query.prepare ic2_query
let ic3 = Read_query.prepare ic3_query
let ic4 = Read_query.prepare ic4_query
let ic5 = Read_query.prepare ic5_query
let ic6 = Read_query.prepare ic6_query
let ic7 = Read_query.prepare ic7_query
let ic8 = Read_query.prepare ic8_query
let ic9 = Read_query.prepare ic9_query
let ic10 = Read_query.prepare ic10_query
let ic11 = Read_query.prepare ic11_query
let ic12 = Read_query.prepare ic12_query
let ic13 = Read_query.prepare ic13_query
let ic14 = Read_query.prepare ic14_query

let all = List.map (fun q -> (q.Read_query.name, Read_query.prepare q)) queries
