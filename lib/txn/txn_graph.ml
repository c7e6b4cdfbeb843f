(* Transactional property-graph store: TEL adjacency + MV2PL + the
   centralized manager, assembled per §IV-C.

   Update transactions follow strict 2PL over the vertices they touch and
   write multi-version entries stamped with their transaction timestamp;
   read-only queries run against the snapshot at a node's LCT copy and
   are never blocked. [crash_recover] replays the §IV-C restart rule. *)

type t = {
  tel : Tel.t;
  locks : Lock_table.t;
  manager : Txn_manager.t;
  schema : Schema.t;
  vertex_labels : int Vec.t;
  vertex_props : (int * int, Value.t) Hashtbl.t; (* (vertex, key) -> value *)
}

type txn = {
  store : t;
  ts : int;
  mutable finished : bool;
  mutable undo : (unit -> unit) list; (* rollback actions, newest first *)
}

exception Aborted of string

let create ?schema ~n_nodes () =
  let schema = match schema with Some s -> s | None -> Schema.create () in
  {
    tel = Tel.create ();
    locks = Lock_table.create ();
    manager = Txn_manager.create ~n_nodes;
    schema;
    vertex_labels = Vec.create ~dummy:(-1);
    vertex_props = Hashtbl.create 256;
  }

let schema t = t.schema
let manager t = t.manager
let locks t = t.locks
let n_vertices t = Tel.n_vertices t.tel

(* --- Update transactions --- *)

let begin_update store =
  { store; ts = Txn_manager.begin_update store.manager; finished = false; undo = [] }

let check_open txn = if txn.finished then invalid_arg "Txn_graph: transaction already finished"

let rollback txn = List.iter (fun undo -> undo ()) txn.undo

let lock txn vertex mode =
  match Lock_table.acquire txn.store.locks ~txn:txn.ts ~vertex mode with
  | Lock_table.Granted -> ()
  | Lock_table.Conflict ->
    txn.finished <- true;
    rollback txn;
    Lock_table.release_all txn.store.locks ~txn:txn.ts;
    Txn_manager.abort txn.store.manager ~ts:txn.ts;
    raise (Aborted (Fmt.str "lock conflict on vertex %d" vertex))

let add_vertex txn ~label ?(props = []) () =
  check_open txn;
  let v = Tel.add_vertex txn.store.tel in
  Vec.push txn.store.vertex_labels (Schema.vertex_label txn.store.schema label);
  lock txn v Lock_table.Exclusive;
  List.iter
    (fun (key, value) ->
      Hashtbl.replace txn.store.vertex_props (v, Schema.property_key txn.store.schema key) value)
    props;
  v

let insert_edge txn ~src ~label ~dst =
  check_open txn;
  lock txn src Lock_table.Exclusive;
  lock txn dst Lock_table.Shared;
  let label = Schema.edge_label txn.store.schema label in
  Tel.insert_edge txn.store.tel ~src ~label ~dst ~ts:txn.ts;
  txn.undo <-
    (fun () -> ignore (Tel.rollback_insert txn.store.tel ~src ~label ~dst ~ts:txn.ts))
    :: txn.undo

let delete_edge txn ~src ~label ~dst =
  check_open txn;
  lock txn src Lock_table.Exclusive;
  let label = Schema.edge_label txn.store.schema label in
  let deleted = Tel.delete_edge txn.store.tel ~src ~label ~dst ~ts:txn.ts in
  if deleted then
    txn.undo <-
      (fun () -> ignore (Tel.rollback_delete txn.store.tel ~src ~label ~dst ~ts:txn.ts))
      :: txn.undo;
  deleted

let commit txn =
  check_open txn;
  txn.finished <- true;
  Lock_table.release_all txn.store.locks ~txn:txn.ts;
  Txn_manager.commit txn.store.manager ~ts:txn.ts

let abort txn =
  check_open txn;
  txn.finished <- true;
  rollback txn;
  Lock_table.release_all txn.store.locks ~txn:txn.ts;
  Txn_manager.abort txn.store.manager ~ts:txn.ts

(* --- Read-only snapshot access (never blocked, §IV-C) --- *)

type snapshot = {
  snap_store : t;
  snap_ts : int;
}

let snapshot store ~node = { snap_store = store; snap_ts = Txn_manager.read_timestamp store.manager ~node }

let neighbors s ~src =
  let out = Vec.create ~dummy:(0, 0) in
  Tel.scan s.snap_store.tel ~src ~ts:s.snap_ts (fun ~dst ~label -> Vec.push out (dst, label));
  Vec.to_array out

let degree s ~src = Tel.degree s.snap_store.tel ~src ~ts:s.snap_ts

let edge_exists s ~src ~label ~dst =
  match Schema.edge_label_opt s.snap_store.schema label with
  | None -> false
  | Some label -> Tel.edge_exists s.snap_store.tel ~src ~label ~dst ~ts:s.snap_ts

let vertex_prop s ~vertex ~key =
  match Schema.property_key_opt s.snap_store.schema key with
  | None -> Value.Null
  | Some k ->
    Option.value ~default:Value.Null (Hashtbl.find_opt s.snap_store.vertex_props (vertex, k))

(* --- Recovery --- *)

(* Restart after a crash: every version newer than the LCT is removed
   (those transactions never committed). Returns removed version count. *)
let crash_recover store = Tel.truncate_after store.tel ~lct:(Txn_manager.lct store.manager)
