(** Naive reference implementations used as test oracles.

    Deliberately simple triple-loop / direct-formula code, independent of the
    TPP backend and PARLOOPER, against which all optimized kernels are
    verified. All math is FP32; callers quantize inputs beforehand when
    checking BF16 paths. *)

(** [matmul a b] for rank-2 [M x K] and [K x N]; returns FP32 [M x N]. *)
val matmul : Tensor.t -> Tensor.t -> Tensor.t

(** [matmul_acc c a b] — c := c + a*b in place (c FP32 rank-2). *)
val matmul_acc : Tensor.t -> Tensor.t -> Tensor.t -> unit

(** Direct convolution, NCHW logical layout.
    [conv2d ~stride ~pad i w] with input [N; C; H; W] and weights
    [K; C; R; S]; returns [N; K; P; Q]. *)
val conv2d : stride:int -> pad:int -> Tensor.t -> Tensor.t -> Tensor.t

val relu : float -> float

(** Exact (erf-based) GELU. *)
val gelu : float -> float

val sigmoid : float -> float

(** Row-wise softmax of a rank-2 tensor (numerically stabilized). *)
val softmax_rows : Tensor.t -> Tensor.t

(** Row-wise layer normalization with per-column gamma/beta.
    [layernorm_rows ~eps x gamma beta]. *)
val layernorm_rows :
  eps:float -> Tensor.t -> float array -> float array -> Tensor.t

(** Global average pooling: [N; C; H; W] -> [N; C]. *)
val global_avgpool : Tensor.t -> Tensor.t
