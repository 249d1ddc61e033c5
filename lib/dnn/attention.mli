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
    standard decode-with-cache alignment. It is {!attend_range} over
    every head. *)
val attend :
  ?nthreads:int ->
  ?causal:bool ->
  heads:int ->
  Tensor.t ->
  Tensor.t ->
  Tensor.t ->
  Tensor.t

(** [attend_range ~heads ~h0 ~h1 ~out q k v] — the same computation
    restricted to heads [h0, h1), writing each head's context into its
    column slice of [out] (a caller-owned [Nq x hidden] tensor; columns
    of other heads are left untouched).

    The query rows run in blocks of 32, aligned to the last row, so
    only the first block may be short. One item is a head and a row
    block: one BRGEMM scores the block against its keys, one pass per
    score row scales, masks and normalises them
    ({!Blocks.softmax_rows_tails}, bit for bit the separate scale, mask
    and softmax passes), and one BRGEMM forms the context over its live
    keys. A causal block's live keys are [0, bound), [bound] the causal
    limit of its last row; without [causal] they are all Nk. Where
    [bound < Nk] the block scores one key more, [bound + 1], so that
    each of its rows, the last included, has a masked column. Past a
    row's limit the softmax stores +0, which BRGEMM adds or skips
    without changing a bit, so stopping P.V at [bound] gives what one
    full-width product gives. A block with a row whose masked exp is
    not +0 (its live scores all [-inf] or at most -1e30, or a NaN max)
    is redone over all Nk keys, which is that full-width product.

    The items run on a team of [nthreads] (default: one thread per
    core), each thread taking the next through [fetch_chunk], the last
    row blocks (the most keys) first; each thread scores into one row
    block of scratch, [32 x Nk], allocated per call and never
    zero-filled. A call too small to pay for a parallel region runs
    inline on the caller: [nthreads = 1], a single item, a single query
    row (a decode step), or fewer than 4096 scores in all. The kernels
    come from {!Dispatch.brgemm}'s cache, looked up once per row block.

    Each output is computed as one full-width call per head computes
    it, whatever the blocks, the team or the heads' split, so a
    head-partitioned (tensor-parallel) run that covers [0, heads) across
    workers is bit-identical to one {!attend} call. *)
val attend_range :
  ?nthreads:int ->
  ?causal:bool ->
  heads:int ->
  h0:int ->
  h1:int ->
  out:Tensor.t ->
  Tensor.t ->
  Tensor.t ->
  Tensor.t ->
  unit

(** Naive float reference of the whole block (tests). *)
val reference_forward : ?causal:bool -> t -> Tensor.t -> Tensor.t
