(* Host-clock measurement around calls into the system under test.

   Every timing is taken from outside the library: the benchmark reads the
   monotonic clock and [Gc.quick_stat] before and after each public entry
   point it calls, so measuring needs no hook inside the program. *)

open Pstm_engine

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

(* The GC counters repeat exactly for a deterministic program, unlike the
   clock: they measure host cost without the machine's noise. *)
type 'a timed = {
  value : 'a;
  wall_s : float;
  minor_words : float;
  major_words : float;
  alloc_words : float; (* everything allocated, counting promoted words once *)
  major_collections : int;
}

let timed f =
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let value = f () in
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  let major_words = g1.Gc.major_words -. g0.Gc.major_words in
  {
    value;
    wall_s = seconds (t1 - t0);
    minor_words;
    major_words;
    alloc_words = minor_words +. major_words -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- Service self time ---------------------------------------------------

   [Service.run] interleaves its own scheduling with the engine: it calls
   into the engine through the session handle, and the engine calls back
   into the service from [sh_at] timers and the terminal callback. The
   wrapper below charges the host time between consecutive boundary
   crossings to whichever side was running, so engine time nested inside
   a service callback, and service time nested inside [sh_drive], each
   land on the right side. The service's self time is the run's total
   minus [engine_ns]. *)

type side = Service_side | Engine_side

type account = { mutable current : side; mutable since : int; mutable engine_ns : int }

let account () = { current = Service_side; since = now_ns (); engine_ns = 0 }

let switch acct side =
  let t = now_ns () in
  if acct.current = Engine_side then acct.engine_ns <- acct.engine_ns + (t - acct.since);
  acct.since <- t;
  let prev = acct.current in
  acct.current <- side;
  prev

let within acct side f =
  let prev = switch acct side in
  let v = f () in
  ignore (switch acct prev);
  v

(* [E] with every session entry point charged to the engine and every
   callback the engine makes back into its caller charged to the service. *)
let timed_engine acct (module E : Engine.S) : (module Engine.S) =
  (module struct
    let name = E.name
    let run = E.run

    let start ?common ~graph () =
      let engine f = within acct Engine_side f in
      let service f = within acct Service_side f in
      let h = engine (fun () -> E.start ?common ~graph ()) in
      {
        h with
        Engine.sh_submit = (fun s -> engine (fun () -> h.Engine.sh_submit s));
        sh_cancel = (fun ~qid ~at -> engine (fun () -> h.Engine.sh_cancel ~qid ~at));
        sh_at = (fun t f -> engine (fun () -> h.Engine.sh_at t (fun () -> service f)));
        sh_on_terminal =
          (fun f -> h.Engine.sh_on_terminal (fun qid o -> service (fun () -> f qid o)));
        sh_drive = (fun ~until -> engine (fun () -> h.Engine.sh_drive ~until));
        sh_finish = (fun () -> engine h.Engine.sh_finish);
      }
  end)
