(* The 7 LDBC SNB Interactive Short queries: point lookups and one-hop
   neighborhood reads. These are the low-latency half of Figure 7's mixed
   workload. Each one binds a single parameter, the id of the person or
   message it starts from, into a shape compiled once per dataset. *)

open Dsl

let person p = v_lookup ~label:Snb_schema.person ~key:"id" p.(0)

(* Posts and comments share the message role; pick a post. *)
let message p = v_lookup ~label:Snb_schema.post ~key:"id" p.(0)

let draw_person (d : Snb_gen.t) =
  let n = Array.length d.Snb_gen.persons in
  fun prng -> [| int (Prng.int prng n) |]

let draw_message (d : Snb_gen.t) =
  let n = max 1 (Array.length d.Snb_gen.posts) in
  fun prng -> [| int (Prng.int prng n) |]

let query name draw body = { Read_query.name; params = 1; draw; body = Read_query.Dsl body }

(* IS1: person profile. *)
let is1_query = query "IS1" draw_person (fun p -> person p |> values "firstName" |> build)

(* IS2: person's recent messages. *)
let is2_query =
  query "IS2" draw_person (fun p ->
      person p |> in_ Snb_schema.has_creator |> top_k "creationDate" 10 |> build)

(* IS3: person's friends. *)
let is3_query = query "IS3" draw_person (fun p -> person p |> out_ Snb_schema.knows |> build)

(* IS4: message content. *)
let is4_query = query "IS4" draw_message (fun p -> message p |> values "content" |> build)

(* IS5: message creator. *)
let is5_query =
  query "IS5" draw_message (fun p -> message p |> out_ Snb_schema.has_creator |> build)

(* IS6: forum containing a message. *)
let is6_query =
  query "IS6" draw_message (fun p -> message p |> in_ Snb_schema.container_of |> build)

(* IS7: replies to a message. *)
let is7_query = query "IS7" draw_message (fun p -> message p |> in_ Snb_schema.reply_of |> build)

let queries = [ is1_query; is2_query; is3_query; is4_query; is5_query; is6_query; is7_query ]
let is1 = Read_query.prepare is1_query
let is2 = Read_query.prepare is2_query
let is3 = Read_query.prepare is3_query
let is4 = Read_query.prepare is4_query
let is5 = Read_query.prepare is5_query
let is6 = Read_query.prepare is6_query
let is7 = Read_query.prepare is7_query
let all = List.map (fun q -> (q.Read_query.name, Read_query.prepare q)) queries
