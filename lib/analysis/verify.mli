(** Static program verifier: the analyses {!Program.make} does not make.

    {!Program.make} is the one structural validator, so every
    {!Program.t} is well formed. On top of that the verifier checks that
    every control-flow cycle passes a Visit bound (else the weight of
    Theorem 1 never returns to the root) and that every register is
    defined before it is read, and warns of a Visit with [max_hops < 1].
    It reports every finding as a {!Diagnostic.t} instead of stopping at
    the first. *)

(** Run every analysis; diagnostics come out in deterministic order
    (max_hops warnings, cycles, def-before-use; step order within each). *)
val check_program : Program.t -> Diagnostic.t list

val is_clean : Diagnostic.t list -> bool
val pp_report : Format.formatter -> Diagnostic.t list -> unit

(** Gate for program-construction sites: returns the program unchanged
    when error-free, raises {!Program.Invalid} with the full report
    otherwise. *)
val program_exn : Program.t -> Program.t
