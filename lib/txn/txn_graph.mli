(** Transactional property-graph store: TEL multi-version adjacency under
    MV2PL with a centralized timestamp manager (§IV-C). *)

type t
type txn

(** Raised when a no-wait lock conflict aborts the transaction (locks are
    released and the manager informed before raising). *)
exception Aborted of string

val create : ?schema:Schema.t -> n_nodes:int -> unit -> t
val schema : t -> Schema.t
val manager : t -> Txn_manager.t
val locks : t -> Lock_table.t
val n_vertices : t -> int

(** {2 Update transactions (strict 2PL)} *)

val begin_update : t -> txn
val add_vertex : txn -> label:string -> ?props:(string * Value.t) list -> unit -> int
val insert_edge : txn -> src:int -> label:string -> dst:int -> unit
val delete_edge : txn -> src:int -> label:string -> dst:int -> bool
val commit : txn -> unit
val abort : txn -> unit

(** {2 Read-only snapshots (never blocked)} *)

type snapshot

(** Snapshot at the LCT copy of [node] — no manager round trip. *)
val snapshot : t -> node:int -> snapshot

(** Visible [(dst, edge-label)] pairs. *)
val neighbors : snapshot -> src:int -> (int * int) array

val degree : snapshot -> src:int -> int
val edge_exists : snapshot -> src:int -> label:string -> dst:int -> bool
val vertex_prop : snapshot -> vertex:int -> key:string -> Value.t

(** {2 Recovery} *)

(** Apply the restart rule: drop versions newer than the LCT. *)
val crash_recover : t -> int
