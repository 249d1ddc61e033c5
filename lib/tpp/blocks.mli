(** Composite TPP blocks: softmax, layernorm, batchnorm and dropout on 2D
    views. These are the fused-operator building blocks the paper composes
    after contractions (bias + dropout + residual + layernorm in
    Bert-Output, scale + softmax in attention, batchnorm after ResNet
    convolutions).

    [softmax_rows], [swiglu] and both layernorms run in the native
    element-wise evaluator ([eltwise_stubs.c]), bit for bit the OCaml
    formulas they replaced. Each raises [Invalid_argument] before it
    stores anything if a view reaches past its buffer. *)

(** Row-wise numerically-stabilized softmax of [scale * inp]: out may
    alias inp.

    Attention's scale and causal mask are folded into the same per-row
    pass: each score is first multiplied by [scale] and stored into
    [out] (rounded to its dtype), every later step reads the stored
    value, and with [causal = offset], the columns of row [i] past
    [i + offset] are masked to [-1e30] (rounded to FP32) before the
    softmax. The result is bit for bit that of a separate
    [Tpp_unary.Scale], a mask store and a softmax over the row, for
    every input, NaN and [+-inf] included: each value is rounded where
    the separate passes store it, and the max, the exponentials and the
    sum run in the same order. [~scale:1.0] is the plain softmax:
    multiplying by 1 keeps every bit, NaNs included. *)
val softmax_rows :
  scale:float ->
  ?causal:int ->
  inp:Tensor.View.t ->
  out:Tensor.View.t ->
  unit ->
  unit

(** SwiGLU's gating in one pass: out := inp * (gate * sigmoid gate),
    rounding the sigmoid and [gate * sigmoid gate] to FP32 where a
    [Tpp_unary.Sigmoid] and two [Tpp_binary.Mul] calls store them, so the
    result is theirs bit for bit. out may alias inp. *)
val swiglu :
  gate:Tensor.View.t -> inp:Tensor.View.t -> out:Tensor.View.t -> unit

(** Backward of row softmax: given saved output [y] and upstream grad [dy],
    dx := y * (dy - rowsum(dy * y)). *)
val softmax_rows_backward :
  y:Tensor.View.t -> dy:Tensor.View.t -> dx:Tensor.View.t -> unit

type layernorm_stats = { mean : float array; rstd : float array }

(** Row-wise layernorm with per-column gamma/beta ([1 x cols] views).
    Returns per-row statistics for the backward pass. Out may alias inp. *)
val layernorm_rows :
  eps:float ->
  inp:Tensor.View.t ->
  gamma:Tensor.View.t ->
  beta:Tensor.View.t ->
  out:Tensor.View.t ->
  layernorm_stats

(** Inference-path layernorm: identical numerics to {!layernorm_rows} but
    records no statistics and allocates nothing — the variant DNN forward
    passes use on the serving hot path. *)
val layernorm_rows_nostats :
  eps:float ->
  inp:Tensor.View.t ->
  gamma:Tensor.View.t ->
  beta:Tensor.View.t ->
  out:Tensor.View.t ->
  unit

(** Backward of row layernorm. [x] is the saved input. Accumulates
    dgamma/dbeta ([1 x cols] views, caller zeroes them first). *)
val layernorm_rows_backward :
  stats:layernorm_stats ->
  x:Tensor.View.t ->
  gamma:Tensor.View.t ->
  dy:Tensor.View.t ->
  dx:Tensor.View.t ->
  dgamma:Tensor.View.t ->
  dbeta:Tensor.View.t ->
  unit

(** Inverted dropout: out := inp * mask / (1-p), mask recorded as 0/1 in
    [mask]. Deterministic given [rng]. p = 0 degenerates to copy. *)
val dropout :
  rng:Prng.t ->
  p:float ->
  inp:Tensor.View.t ->
  mask:Tensor.View.t ->
  out:Tensor.View.t ->
  unit

(** Backward: dx := dy * mask / (1-p). *)
val dropout_backward :
  p:float ->
  dy:Tensor.View.t ->
  mask:Tensor.View.t ->
  dx:Tensor.View.t ->
  unit

(** Inference-mode batchnorm on a 2D view whose rows share one channel:
    out := (inp - mean) * gamma / sqrt(var+eps) + beta, scalars per call
    (convolution layers apply it per feature-map block). *)
val batchnorm_apply :
  eps:float ->
  mean:float ->
  var:float ->
  gamma:float ->
  beta:float ->
  inp:Tensor.View.t ->
  out:Tensor.View.t ->
  unit
