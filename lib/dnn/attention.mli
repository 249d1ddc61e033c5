(** Multi-head self-attention built from TPP blocks: blocked tensor
    contractions fused with scale, mask and softmax TPPs — the
    computational pattern of Bert-Self-Attention (§IV-A) and of the
    decoder-attention in the LLM pipelines (with a KV cache and causal
    masking). *)

type t = {
  hidden : int;
  heads : int;
  head_dim : int;
  wq : Fc.t;
  wk : Fc.t;
  wv : Fc.t;
  wo : Fc.t;
}

val create :
  rng:Prng.t ->
  ?dtype:Datatype.t ->
  ?block:int ->
  ?spec:string ->
  hidden:int ->
  heads:int ->
  unit ->
  t

(** QKV projections of [tokens x hidden] input. *)
val project : ?nthreads:int -> t -> Tensor.t -> Tensor.t * Tensor.t * Tensor.t

(** [attend ~heads ~causal q k v] — scaled-dot-product attention per head.
    [q : Nq x hidden], [k v : Nk x hidden]; returns [Nq x hidden].
    With [causal], query i attends keys j <= i + (Nk - Nq), which is the
    standard decode-with-cache alignment. Per head, one BRGEMM computes
    the scores, one pass per score row scales, masks and normalises them
    ({!Blocks.softmax_rows} with [~scale ~causal], bit for bit the
    separate scale, mask and softmax passes), and one BRGEMM forms the
    context; both kernels come from {!Dispatch.brgemm}'s cache. *)
val attend :
  ?causal:bool -> heads:int -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t

(** [attend_range ~heads ~h0 ~h1 ~out q k v] — the same computation
    restricted to heads [h0, h1), writing each head's context into its
    column slice of [out] (a caller-owned [Nq x hidden] tensor; columns
    of other heads are left untouched). Head h is computed exactly as
    {!attend} computes it, so a head-partitioned (tensor-parallel) run
    that covers [0, heads) across workers is bit-identical to one
    {!attend} call. *)
val attend_range :
  ?causal:bool ->
  heads:int ->
  h0:int ->
  h1:int ->
  out:Tensor.t ->
  Tensor.t ->
  Tensor.t ->
  Tensor.t ->
  unit

(** Full block: projections, attention, output projection. *)
val forward : ?nthreads:int -> ?causal:bool -> t -> Tensor.t -> Tensor.t

(** Naive float reference of the whole block (tests). *)
val reference_forward : ?causal:bool -> t -> Tensor.t -> Tensor.t
