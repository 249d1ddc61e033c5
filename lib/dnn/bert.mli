(** BERT encoder built from the four fused PARLOOPER/TPP modules of §IV-A:

    - {b Embeddings}: token + position lookups, layernorm
    - {b Self-Attention}: blocked contractions fused with scale/softmax
    - {b Output / Self-Output}: BRGEMM fused with bias, residual add and
      layernorm TPPs on 2D-block granularity (Listing 6); Self-Output's
      dense is the attention block's output projection [wo]
    - {b Intermediate}: BRGEMM cascaded with bias add and GELU

    The block-sparse BERT of §IV-B is the same model with block-sparse
    FCs ({!sparsify}): each FC's contraction runs Block-SpMM instead of
    the GEMM, and the encoder layer is the same.

    Every pass is inference: dropout is the identity. The implementation
    is exact (verified against naive references at small shapes); the
    paper-scale BERT-Base/Large shapes are exposed via {!base_config} /
    {!large_config} and consumed by the benchmark harness's analytic
    workload models. *)

type config = {
  hidden : int;
  heads : int;
  intermediate : int;
  layers : int;
  vocab : int;
  max_seq : int;
}

(** BERT-Base: 768/12/3072/12. *)
val base_config : config

(** BERT-Large: 1024/16/4096/24. *)
val large_config : config

(** Tiny config for executable tests/examples. *)
val tiny_config : config

(** One encoder layer's parameters. *)
type layer = {
  attention : Attention.t;
      (** Q, K and V, and [wo], the Bert-SelfOutput dense *)
  att_gamma : Tensor.t;
  att_beta : Tensor.t;
  intermediate_fc : Fc.t;  (** hidden -> intermediate, fused GELU *)
  out_fc : Fc.t;  (** intermediate -> hidden (Bert-Output dense) *)
  out_gamma : Tensor.t;
  out_beta : Tensor.t;
}

type t = {
  cfg : config;
  token_embedding : Tensor.t;  (** [vocab x hidden] *)
  position_embedding : Tensor.t;  (** [max_seq x hidden] *)
  emb_gamma : Tensor.t;
  emb_beta : Tensor.t;
  encoder : layer array;
}

val create :
  rng:Prng.t -> ?dtype:Datatype.t -> ?block:int -> ?spec:string -> config -> t

(** Bert-Embeddings: token ids -> [seq x hidden], layernormed. *)
val embed : t -> int array -> Tensor.t

(** One encoder layer forward on [seq x hidden], dense or block-sparse. *)
val encoder_layer : ?nthreads:int -> layer -> Tensor.t -> Tensor.t

(** The encoder stack on embeddings [seq x hidden]. *)
val encode : ?nthreads:int -> t -> Tensor.t -> Tensor.t

(** Full forward: token ids -> final hidden states, {!encode} after
    {!embed}. *)
val forward : ?nthreads:int -> t -> int array -> Tensor.t

(** Block-sparse BERT (§IV-B / Fig. 10). [sparsify ~bm ~bk ~sparsity t]
    magnitude-prunes the weights of every encoder FC ({!Fc.sparsify}) and
    returns two models on the pruned weights: the block-sparse one, whose
    FCs run Block-SpMM, and its dense equivalent, whose FCs run the dense
    GEMM. The attention score and context contractions and the
    element-wise blocks stay dense in both, as in the paper's roofline
    construction. *)
val sparsify : bm:int -> bk:int -> sparsity:float -> t -> t * t

(** The fraction of blocks not stored, averaged over the encoder's FCs; a
    dense FC stores all of them. *)
val achieved_sparsity : t -> float

(** Effective FLOPs of one encoder layer at [seq]: each FC's contraction
    scaled by its density. *)
val layer_effective_flops : t -> seq:int -> float

(** Naive reference of one encoder layer (tests). *)
val reference_encoder_layer : layer -> Tensor.t -> Tensor.t

(** FLOPs of one encoder layer forward at sequence length [seq]. *)
val layer_flops : config -> seq:int -> float

(** FLOPs of a full forward pass. *)
val forward_flops : config -> seq:int -> float

(** FLOPs of one training step (fwd + bwd ~ 3x fwd contraction work). *)
val train_step_flops : config -> seq:int -> batch:int -> float
