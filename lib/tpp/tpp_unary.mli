(** Unary Tensor Processing Primitives: elementwise maps, reductions and
    reformats over 2D views (the paper's TPP collection, §I/§II).

    All TPPs read FP32 values (BF16 data is stored rounded, see {!Tensor})
    and quantize on store to the output view's datatype. *)

type op =
  | Zero
  | Copy
  | Relu
  | Relu_backward  (** out := out-grad where saved input > 0 (see exec2) *)
  | Gelu  (** exact erf-based GELU, as used for BERT-Intermediate *)
  | Gelu_backward
  | Sigmoid
  | Tanh
  | Exp
  | Sqrt
  | Square
  | Reciprocal
  | Negate
  | Abs
  | Scale of float  (** multiply by a constant *)
  | Shift of float  (** add a constant *)

val op_to_string : op -> string

(** [exec op ~inp ~out] — elementwise map; shapes must match. [Zero] ignores
    [inp] (pass [out]). [Copy] is a strided copy; every other op runs in
    the native element-wise evaluator ([eltwise_stubs.c]), which raises
    [Invalid_argument] before it stores anything if a view reaches past
    its buffer. *)
val exec : op -> inp:Tensor.View.t -> out:Tensor.View.t -> unit

(** Two-input unary variants: [exec2 op ~inp ~aux ~out].
    [Relu_backward]: out := inp (grad) masked by aux (saved activation) > 0.
    [Gelu_backward]: out := inp * gelu'(aux). *)
val exec2 :
  op -> inp:Tensor.View.t -> aux:Tensor.View.t -> out:Tensor.View.t -> unit

type reduce_kind = Sum | Max | Min
type reduce_axis = Rows  (** one result per row *) | Cols  (** per column *)

(** [reduce kind axis ~inp ~out] — [out] must be [rows x 1] for [Rows] and
    [1 x cols] for [Cols]. *)
val reduce :
  reduce_kind -> reduce_axis -> inp:Tensor.View.t -> out:Tensor.View.t -> unit

(** Out-of-place transpose: [out.(j).(i) = inp.(i).(j)]. *)
val transpose : inp:Tensor.View.t -> out:Tensor.View.t -> unit

(** Datatype conversion is a [Copy] whose output view carries the target
    dtype; provided named for readability at call sites. *)
val convert : inp:Tensor.View.t -> out:Tensor.View.t -> unit

(** Broadcast a [1 x cols] row across all rows of [out]. *)
val broadcast_row : inp:Tensor.View.t -> out:Tensor.View.t -> unit

(** Broadcast a [rows x 1] column across all columns of [out]. *)
val broadcast_col : inp:Tensor.View.t -> out:Tensor.View.t -> unit
