(* Graph schema: interned vertex labels, edge labels and property keys.

   Label and key strings appear on every step of a compiled plan and on
   every adjacency scan, so they are interned to dense integer ids once at
   graph-build time and compared by id everywhere else. *)

module Interner = struct
  type t = {
    by_name : (string, int) Hashtbl.t;
    names : string Vec.t;
  }

  let create () = { by_name = Hashtbl.create 16; names = Vec.create ~dummy:"" }

  let intern t name =
    match Hashtbl.find_opt t.by_name name with
    | Some id -> id
    | None ->
      let id = Vec.length t.names in
      Hashtbl.add t.by_name name id;
      Vec.push t.names name;
      id

  let find_opt t name = Hashtbl.find_opt t.by_name name

  let find_exn t name =
    match find_opt t name with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Schema: unknown name %S" name)

  let name t id =
    if id < 0 || id >= Vec.length t.names then
      invalid_arg (Printf.sprintf "Schema: unknown id %d" id);
    Vec.get t.names id

  let count t = Vec.length t.names
end

open struct
  module I = Interner
end

type t = {
  vertex_labels : I.t;
  edge_labels : I.t;
  property_keys : I.t;
}

let create () =
  { vertex_labels = I.create (); edge_labels = I.create (); property_keys = I.create () }

let vertex_label t name = I.intern t.vertex_labels name
let edge_label t name = I.intern t.edge_labels name
let property_key t name = I.intern t.property_keys name

let vertex_label_opt t name = I.find_opt t.vertex_labels name
let edge_label_opt t name = I.find_opt t.edge_labels name
let property_key_opt t name = I.find_opt t.property_keys name

let vertex_label_exn t name = I.find_exn t.vertex_labels name
let edge_label_exn t name = I.find_exn t.edge_labels name
let property_key_exn t name = I.find_exn t.property_keys name

let vertex_label_name t id = I.name t.vertex_labels id
let vertex_label_count t = I.count t.vertex_labels
