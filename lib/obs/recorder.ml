(* Bundle of the four per-run collectors (trace, operator stats, traffic
   profile, causal DAG), threaded through engines as a single optional
   argument. The disabled bundle is a shared singleton whose components
   are each the no-op variant, so an engine can hold a recorder
   unconditionally and the per-step cost when observability is off is
   one flag check. *)

type t = {
  trace : Trace.t;
  opstats : Opstats.t;
  traffic : Traffic.t;
  causal : Causal.t;
  enabled : bool;
}

let disabled =
  {
    trace = Trace.disabled;
    opstats = Opstats.disabled;
    traffic = Traffic.disabled;
    causal = Causal.disabled;
    enabled = false;
  }

(* Causal tracing stays off by default even when the rest of the bundle
   is on: context threading allocates a DAG node per hand-off, which the
   span consumers don't need to pay for. *)
let create ?trace_capacity ?(causal = false) ?causal_capacity () =
  {
    trace = Trace.create ?capacity:trace_capacity ();
    opstats = Opstats.create ();
    traffic = Traffic.create ();
    causal = (if causal then Causal.create ?capacity:causal_capacity () else Causal.disabled);
    enabled = true;
  }

let enabled t = t.enabled
let trace t = t.trace
let opstats t = t.opstats
let traffic t = t.traffic
let causal t = t.causal
