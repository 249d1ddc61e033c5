(** Logical loop declarations — the [LoopSpecs {start, bound, step, {l1,l0}}]
    of the paper's Listing 1.

    A logical loop is declared once, with its iteration range and innermost
    step, plus an optional list of blocking steps consumed outer-to-inner
    when the [loop_spec_string] blocks the loop multiple times. *)

type t = {
  start : int;
  bound : int;
  step : int;
  block_steps : int list;
      (** outer-to-inner blocking steps, e.g. [l1_step; l0_step] *)
}

(** [make ?start ?block_steps ~bound ~step ()]. [step] must be positive and
    [start <= bound]. *)
val make : ?start:int -> ?block_steps:int list -> bound:int -> step:int -> unit -> t

(** The step used by the [occ]-th (0-based, outer-to-inner) of [total]
    occurrences of this loop in a spec string: blocking steps first, the
    declared [step] last. Raises [Invalid_argument] if the declaration does
    not provide enough blocking steps. *)
val step_at : t -> occ:int -> total:int -> int

val to_string : t -> string
