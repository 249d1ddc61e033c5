(** Fully-connected layer on logical [tokens x features] activations,
    built on a PARLOOPER contraction: the GEMM for dense weights, the
    Block-SpMM kernel (§III-C) for block-sparse ones.

    Convention (matching BERT-style layers): activations are row-major
    [N x in_features]; weights are [out_features x in_features];
    [forward] computes Y = X W^T + b. A dense layer's GEMM takes the
    activations as its A operand, read in place as row-major token rows
    ({!Gemm.Rows}), and W^T as its B operand, packed once when the layer
    is built, as the paper's and TPP's layers block their weights once
    and hand every call to BRGEMM. Y is written in place. *)

type activation = Linear | Relu_act | Gelu_act

(** A layer's contraction, chosen by the format of its weights. *)
type kernel =
  | Dense of Tensor.t
      (** W^T in the GEMM's B layout, rounded to the layer's [dtype] *)
  | Block_sparse of Bcsc.t
      (** W in BCSC, run as Block-SpMM on X^T in FP32 (§IV-B) *)

(** A layer is built by {!create}, {!slice}, {!with_weights} or
    {!sparsify}, which build its [kernel] at once. *)
type t = private {
  in_features : int;
  out_features : int;
  weights : Tensor.t;
      (** logical [out x in]; a block-sparse layer's are its pruned
          weights, the dropped blocks zero. {!forward} reads [kernel],
          built from these when the layer was: an in-place write to this
          tensor is not seen. To run other weights, build a layer with
          {!with_weights}. *)
  bias : Tensor.t;  (** [out] *)
  act : activation;
  block : int;
  dtype : Datatype.t;
  spec : string;
  kernel : kernel;
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

(** Output features [\[r0, r1)] as a layer of their own (the column
    split of a tensor-parallel shard): the same block, spec, activation
    and dtype, so it tiles and reduces each output exactly as the whole
    layer does. The whole range is the layer itself. Raises
    [Invalid_argument] on a block-sparse layer, which nothing shards. *)
val slice : t -> r0:int -> r1:int -> t

(** [with_weights t w] is a dense layer running the weights [w] (logical
    [out x in]): the same bias, activation, block, dtype and spec, with
    W^T packed from [w]. [t] keeps its own weights. On a block-sparse
    [t], [with_weights t t.weights] is its dense equivalent. *)
val with_weights : t -> Tensor.t -> t

(** [sparsify ~bm ~bk ~sparsity t] magnitude-prunes [t]'s weights to
    [sparsity] in [bm x bk] blocks ({!Bcsc.prune_dense}) and runs them as
    Block-SpMM: the same bias and activation, with [weights] the pruned
    matrix. [bm] must divide [out_features], and [bk] [in_features]. *)
val sparsify : bm:int -> bk:int -> sparsity:float -> t -> t

(** [forward t x] with [x : N x in] returns [N x out]. Any token count
    works. On a dense layer, tokens are the GEMM's M, in blocks of
    [bm = max block 64] rows with a short last block, and output features
    its N, in blocks of [block] columns, so a single token runs on full
    vectors too. [bm] is not [block] because the M block orders no
    reduction: a larger one only makes a prefill's BRGEMM calls fewer and
    longer (a 170-row [Llm.tiny] FFN up-projection makes 24 calls instead
    of 88), and a one-row decode is one block at any [bm]. The GEMM runs
    with [bk = block] and [k_step = 1], one BRGEMM call per K block, not
    at {!Gemm.make_config}'s full-K default: a full-K reduction rounds
    differently, and serving's outputs keep their bits (a tuned spec
    keeps the same K-loop space too). Each output keeps the K order and
    FP32 rounding points it had when W was the A operand. The kernel
    skips zero elements of A, which are now X's rather than W's; that
    changes a result only where a zero meets an infinite or NaN operand,
    or a K-block partial sum that rounded to -0. A block-sparse layer
    runs Block-SpMM on X^T with its default spec, then transposes the
    product and applies the bias and the activation over it. *)
val forward : ?nthreads:int -> t -> Tensor.t -> Tensor.t

(** [forward_into t x ~out ~col0] writes [forward t x] into columns
    [\[col0, col0 + out_features)] of the FP32 tensor [out : N x W], in
    place. *)
val forward_into :
  ?nthreads:int -> t -> Tensor.t -> out:Tensor.t -> col0:int -> unit
