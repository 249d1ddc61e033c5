(** Minimal dependency-free JSON reader. The telemetry reports, Chrome
    traces and bench JSON files are emitted by hand-written printers; run
    them through {!validate} right after producing (and in tests) so
    malformed output fails at the source, and read them back with
    {!parse} (the bench regression gate reads its committed baseline this
    way). *)

exception Bad_json of string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string  (** escapes decoded; [\u] escapes as UTF-8 *)
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

(** Raises {!Bad_json} with a position-annotated message on malformed
    input (RFC 8259 grammar). *)
val parse : string -> t

(** {!parse}, discarding the value. *)
val validate : string -> unit

(** Non-raising {!validate}: [Error msg] on malformed input. *)
val check : string -> (unit, string) result

(** Escape a string for inclusion in a JSON string literal (quotes,
    backslash, control characters; bytes ≥ 0x20 pass through verbatim). *)
val escape : string -> string

(** Render a float with no NaN/Inf and no exponent surprises. *)
val float_repr : float -> string
