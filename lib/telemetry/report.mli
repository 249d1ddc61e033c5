(** A text summary of everything the registry collected. Pass
    [peak_gflops] / [mem_bw_gbs] (e.g. from a {!Platform.t}) to add
    roofline context to the per-kernel achieved-GFLOPS lines. *)

val summary : ?peak_gflops:float -> ?mem_bw_gbs:float -> unit -> string
val print : ?peak_gflops:float -> ?mem_bw_gbs:float -> unit -> unit

(** Attainable GFLOPS at arithmetic intensity [ai] (flops/byte). *)
val roofline : peak_gflops:float -> mem_bw_gbs:float -> float -> float

(** JSON helpers shared with {!Chrome_trace}. *)
val json_escape : string -> string

val json_float : float -> string
