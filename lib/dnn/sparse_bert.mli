(** Unstructured block-sparse BERT inference (§IV-B / Fig. 10).

    A dense BERT's FC weight matrices are magnitude-pruned block-wise
    ({!Bcsc.prune_dense}) to a target sparsity — the structural half of the
    paper's distillation + pruning recipe — and the dense BRGEMM tensor
    contractions are replaced by the Block-SpMM PARLOOPER kernels. The
    attention score/context contractions and all element-wise blocks stay
    dense, exactly as in the paper's roofline construction. *)

type t

(** The dense model this sparse model was pruned from. *)
val bert : t -> Bert.t

(** [sparsify ~bm ~bk ~sparsity bert] prunes every encoder FC weight
    (QKV/out projections, intermediate, output) of a dense {!Bert.t}. *)
val sparsify : bm:int -> bk:int -> sparsity:float -> Bert.t -> t

(** Achieved sparsity averaged over pruned matrices. *)
val achieved_sparsity : t -> float

(** One encoder layer forward with sparse contractions. *)
val encoder_layer : ?nthreads:int -> t -> int -> Tensor.t -> Tensor.t

(** Full encoder forward on precomputed embeddings. *)
val forward : ?nthreads:int -> t -> Tensor.t -> Tensor.t

(** Dense-equivalent forward on the SAME pruned weights (zeros kept),
    for correctness comparison. *)
val dense_equivalent_forward : ?nthreads:int -> t -> Tensor.t -> Tensor.t

(** Effective FLOPs of one layer at [seq] (contractions scaled by
    density). *)
val layer_effective_flops : t -> seq:int -> float
