(** Lanes indexed by dense int handles that grow by fixed-size chunks.

    A lane is an ['a array array]; handle [h] lives at
    [lane.(h lsr bits).(h land mask)]. Growing appends one chunk and never
    copies or moves the slots already there, so a lane that holds over a
    million live handles at its peak never keeps two copies of itself
    alive. The message slab and the channel's per-message lanes are laid
    out this way, one lane per field, all indexed by the same handle. *)

(** A chunk holds [1 lsl bits] slots. *)
val bits : int

(** [1 lsl bits - 1]. *)
val mask : int

(** The number of slots [lane] holds. *)
val capacity : 'a array array -> int

(** [add lane fill] is [lane] with one more chunk, every slot [fill]. *)
val add : 'a array array -> 'a -> 'a array array
