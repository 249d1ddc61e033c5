(** Composite TPP blocks: softmax, SwiGLU and layernorm on 2D views.
    These are the fused-operator building blocks the paper composes after
    contractions (residual + layernorm in Bert-Output, scale + softmax in
    attention, the gating of a SwiGLU FFN).

    All three run in the native element-wise evaluator
    ([eltwise_stubs.c]), bit for bit the OCaml formulas they replaced.
    Each raises [Invalid_argument] before it stores anything if a view
    reaches past its buffer. *)

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
    multiplying by 1 keeps every bit, NaNs included.

    The tail shortcut: a row's masked columns all hold one value,
    [exp(-1e30 - max)]. Where it is +0 (every row whose max is a live
    score above -1e30), the tail is stored as +0 and not added to the
    sum, and when [1 / sum] is finite and positive only the live columns
    are normalised; adding +0 to the sum and multiplying +0 by a positive
    number keep every bit, so this is the same result, at the cost of
    the live columns only. Any other row, whose live scores are all
    [-inf] or at most -1e30 or whose max is NaN, runs the whole row. *)
val softmax_rows :
  scale:float ->
  ?causal:int ->
  inp:Tensor.View.t ->
  out:Tensor.View.t ->
  unit ->
  unit

(** {!softmax_rows}, returning the number of rows whose masked columns
    are not +0 (none without [causal]). In every other row, each masked
    column is +0, so a product with the result may stop at the row's
    last live column: attention cuts a causal row block's P.V there, and
    redoes the block at full width when this is not 0. *)
val softmax_rows_tails :
  scale:float ->
  ?causal:int ->
  inp:Tensor.View.t ->
  out:Tensor.View.t ->
  unit ->
  int

(** SwiGLU's gating in one pass: out := inp * (gate * sigmoid gate),
    rounding the sigmoid and [gate * sigmoid gate] to FP32 where a
    [Tpp_unary.Sigmoid] and two [Tpp_binary.Mul] calls store them, so the
    result is theirs bit for bit. out may alias inp. *)
val swiglu :
  gate:Tensor.View.t -> inp:Tensor.View.t -> out:Tensor.View.t -> unit

(** Row-wise layernorm with per-column [gamma] and [beta] ([1 x cols]
    views). It records no statistics and allocates nothing. Out may alias
    inp. *)
val layernorm_rows_nostats :
  eps:float ->
  inp:Tensor.View.t ->
  gamma:Tensor.View.t ->
  beta:Tensor.View.t ->
  out:Tensor.View.t ->
  unit
