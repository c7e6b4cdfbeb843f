(* Growable array. OCaml 5.1 has no Dynarray in the stdlib, and the
   traversal engines append to frontiers and message buffers on every step,
   so this is one of the hottest structures in the repository. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { data = [||]; len = 0; dummy }

let make ~dummy n x =
  if n < 0 then invalid_arg "Vec.make";
  { data = Array.make (max n 1) x; len = n; dummy }

let length t = t.len

let is_empty t = t.len = 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  (* Drop references so the GC can reclaim elements. *)
  Array.fill t.data n (t.len - n) t.dummy;
  t.len <- n

let clear t = truncate t 0

let reset t =
  t.data <- [||];
  t.len <- 0

let ensure_capacity t n =
  let cap = Array.length t.data in
  if n > cap then begin
    let new_cap = max n (max 8 (2 * cap)) in
    let data = Array.make new_cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: out of bounds";
  t.data.(i) <- x

let last t =
  if t.len = 0 then invalid_arg "Vec.last: empty";
  t.data.(t.len - 1)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let to_array t = Array.sub t.data 0 t.len

let copy t = { data = Array.sub t.data 0 t.len; len = t.len; dummy = t.dummy }

let to_list t = Array.to_list (to_array t)

let of_array ~dummy arr =
  { data = Array.copy arr; len = Array.length arr; dummy }

let append ~into t =
  ensure_capacity into (into.len + t.len);
  Array.blit t.data 0 into.data into.len t.len;
  into.len <- into.len + t.len

let swap_remove t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.swap_remove: out of bounds";
  let x = t.data.(i) in
  t.len <- t.len - 1;
  t.data.(i) <- t.data.(t.len);
  t.data.(t.len) <- t.dummy;
  x

let sort cmp t =
  let arr = to_array t in
  Array.sort cmp arr;
  Array.blit arr 0 t.data 0 t.len
