(* Chunked lanes: see the interface. 1 024 slots per chunk keeps the
   outer array small (about 1 500 chunks at a 1.5 M-handle peak) and the
   last chunk's unused tail under 8 KB per lane. *)

let bits = 10
let size = 1 lsl bits
let mask = size - 1
let capacity lane = Array.length lane lsl bits
let add lane fill = Array.append lane [| Array.make size fill |]
