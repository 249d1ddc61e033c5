(** Fully-connected layer on logical [tokens x features] activations, built
    on the PARLOOPER GEMM kernel, with a training-grade backward pass.

    Convention (matching BERT-style layers): activations are row-major
    [N x in_features]; weights are [out_features x in_features];
    [forward] computes Y = X W^T + b. Internally the GEMM runs on blocked
    tensors with W as the A operand and X^T as the B operand, exactly the
    paper's fully-connected formulation O = W x I. *)

type activation = Linear | Relu_act | Gelu_act

type t = {
  in_features : int;
  out_features : int;
  weights : Tensor.t;  (** logical [out x in] *)
  bias : Tensor.t;  (** [out] *)
  act : activation;
  block : int;
  dtype : Datatype.t;
  spec : string;
}

val create :
  rng:Prng.t ->
  ?dtype:Datatype.t ->
  ?act:activation ->
  ?block:int ->
  ?spec:string ->
  in_features:int ->
  out_features:int ->
  unit ->
  t

(** [forward t x] with [x : N x in] returns [N x out]. Any token count
    works: the GEMM's N block is the largest divisor of [N] not above the
    block size. The GEMM runs with [k_step = 1], one BRGEMM call per K
    block, not at {!Gemm.make_config}'s full-K default: a full-K
    reduction rounds differently, and serving's outputs keep their bits
    (a tuned spec keeps the same K-loop space too). *)
val forward : ?nthreads:int -> t -> Tensor.t -> Tensor.t

(** Saved context from a forward pass used by backward. *)
type ctx

val forward_ctx : ?nthreads:int -> t -> Tensor.t -> Tensor.t * ctx

type grads = { d_input : Tensor.t; d_weights : Tensor.t; d_bias : Tensor.t }

(** [backward t ctx ~dy] — gradients for input, weights and bias given the
    upstream gradient [N x out]. *)
val backward : ?nthreads:int -> t -> ctx -> dy:Tensor.t -> grads

(** Apply SGD update in place: w -= lr * dw. *)
val sgd_update : t -> grads -> lr:float -> unit

(** Forward FLOPs for [n] tokens: 2 * n * in * out. *)
val flops : t -> n:int -> float
