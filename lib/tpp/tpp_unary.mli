(** Unary Tensor Processing Primitives: elementwise maps and reformats
    over 2D views (the paper's TPP collection, §I/§II).

    All TPPs read FP32 values (BF16 data is stored rounded, see {!Tensor})
    and quantize on store to the output view's datatype. *)

type op =
  | Zero
  | Copy
  | Relu
  | Gelu  (** exact erf-based GELU, as used for BERT-Intermediate *)
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
    [inp] (pass [out]). [Copy] is a strided copy, and a datatype
    conversion when [out]'s dtype differs from [inp]'s; every other op
    runs in the native element-wise evaluator ([eltwise_stubs.c]), which
    raises [Invalid_argument] before it stores anything if a view reaches
    past its buffer. *)
val exec : op -> inp:Tensor.View.t -> out:Tensor.View.t -> unit

(** Out-of-place transpose: [out.(j).(i) = inp.(i).(j)]. *)
val transpose : inp:Tensor.View.t -> out:Tensor.View.t -> unit
