(* Chunked lanes: see the interface. 1 024 slots per chunk keeps the
   spine small (about 1 500 chunks at a 1.5 M-handle peak) and the last
   chunk's unused tail under 8 KB per lane. *)

let bits = 10
let size = 1 lsl bits
let mask = size - 1

(* [spine.(c)] is chunk [c] for [c < chunks]; the spine's tail past
   [chunks] holds the empty array until [grow] puts a chunk there. *)
type 'a t = { mutable spine : 'a array array; mutable chunks : int }

let create () = { spine = [||]; chunks = 0 }
let capacity t = t.chunks lsl bits
let[@inline] get t h = t.spine.(h lsr bits).(h land mask)
let[@inline] set t h v = t.spine.(h lsr bits).(h land mask) <- v

let grow t fill =
  if t.chunks = Array.length t.spine then begin
    let spine = Array.make (max 8 (2 * t.chunks)) [||] in
    Array.blit t.spine 0 spine 0 t.chunks;
    t.spine <- spine
  end;
  t.spine.(t.chunks) <- Array.make size fill;
  t.chunks <- t.chunks + 1
