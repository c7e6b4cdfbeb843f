(** Structured findings of the program verifier ({!Verify}).

    A diagnostic names the violated invariant class, the offending step
    index (when one exists) and an explanation. *)

type severity =
  | Error
  | Warning

type kind =
  | Malformed  (** a Visit with [max_hops < 1], which never takes its loop edge *)
  | Unbounded_repeat  (** control-flow cycle with no Visit memo bound *)
  | Use_before_def  (** register read on a path where nothing defined it *)

type t = {
  severity : severity;
  kind : kind;
  step : int option;
  message : string;
}

val kind_name : kind -> string
val severity_name : severity -> string
val error : ?step:int -> kind -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning : ?step:int -> kind -> ('a, Format.formatter, unit, t) format4 -> 'a
val is_error : t -> bool
val pp : Format.formatter -> t -> unit
