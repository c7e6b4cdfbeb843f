(** Lanes indexed by dense int handles that grow by fixed-size chunks.

    A lane is a spine of chunks of 1 024 slots each. Growing adds one
    chunk; the chunks already there are never copied or moved, and only
    the spine, one word per chunk, doubles when it fills. So a lane that
    holds over a million live handles at its peak never keeps two copies
    of its slots alive, and growing it to [n] chunks allocates about [2n]
    spine words in all. The message slab's three lanes and the channel's
    link lane are laid out this way, all indexed by the same handle: four
    lane words per message in flight. *)

type 'a t

(** An empty lane: capacity 0. *)
val create : unit -> 'a t

(** The number of slots the lane holds: its chunks times 1 024. O(1). *)
val capacity : 'a t -> int

(** [get lane h] is the slot of handle [h]; raises [Invalid_argument] if
    [h] is negative or at least [capacity lane]. *)
val get : 'a t -> int -> 'a

(** [set lane h v] writes [v] to the slot of handle [h]; raises as {!get}. *)
val set : 'a t -> int -> 'a -> unit

(** [grow lane fill] adds one chunk, every slot [fill], so the 1 024
    handles from [capacity lane] on become valid. *)
val grow : 'a t -> 'a -> unit
