(** Binary Tensor Processing Primitives over 2D views. *)

type op = Add | Sub | Mul | Div | Max | Min

(** Broadcast mode for the second operand. *)
type broadcast =
  | Full  (** same shape as output *)
  | Row  (** [1 x cols], broadcast down rows — e.g. bias add *)
  | Col  (** [rows x 1], broadcast across columns *)
  | Scalar  (** [1 x 1] *)

val op_to_string : op -> string

(** [exec op ~bcast ~a ~b ~out] — out := a (op) broadcast(b). [a] and
    [out] must have identical shapes; [b]'s shape must match [bcast]
    ([Full] for an elementwise op). [out] may alias [a] (in-place
    accumulate patterns). It runs in the native element-wise evaluator
    ([eltwise_stubs.c]): of two NaN operands, [Add] and [Mul] return
    [a]'s, and [Max] and [Min] are [Float.max] and [Float.min]. A view
    reaching past its buffer raises [Invalid_argument] before anything
    is stored. *)
val exec :
  op ->
  bcast:broadcast ->
  a:Tensor.View.t ->
  b:Tensor.View.t ->
  out:Tensor.View.t ->
  unit
