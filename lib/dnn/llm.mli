(** Decoder-only LLM inference pipeline (§IV-A / Fig. 11): GPT-J- and
    Llama2-style transformer decoders with causal attention, a KV cache,
    and the two-phase latency structure the paper measures — a
    compute-bound {e first token} (prefill over all input tokens) and
    bandwidth-bound {e next tokens} (one token per step against the cache).

    Executable at scaled-down shapes (verified: incremental decoding with
    the cache reproduces full-sequence forward); paper-scale GPT-J-6B and
    Llama2-13B shapes feed the benchmark harness's analytic models. *)

type config = {
  name : string;
  hidden : int;
  heads : int;
  intermediate : int;
  layers : int;
  vocab : int;
  gated_ffn : bool;
      (** SwiGLU-style 3-matrix FFN (Llama2) vs 2-matrix GELU FFN (GPT-J) *)
}

val gptj_6b : config
val llama2_13b : config
val tiny : config

type t

(** A model of one shard: its one slice set is each layer's own weights. *)
val create :
  rng:Prng.t -> ?dtype:Datatype.t -> ?block:int -> ?spec:string -> config -> t

val config : t -> config

(** [shard t ~shards] is [t] run tensor-parallel over [shards] shards.
    Every projection of every decoder layer is column-split into
    [shards] contiguous, block-aligned output slices (attention slices
    are head-aligned, so each shard owns whole heads). Each shard
    computes its output columns with the full input and the same
    k-reduction order as the unsharded GEMM; shards combine by
    concatenation (disjoint column writes), never by summation — so
    {!prefill}, {!decode_step} and {!extend} on the result are
    bit-identical to [t]'s on the same cache state. Each stage of a
    decoder layer runs as one [Team.run ~nthreads:shards] region whose
    kernels get the caller's [?nthreads] with one shard and
    [~nthreads:1] with more, so team regions never nest. A cache made
    for [t] serves the result too. With one shard the slices are the
    layers' own weights; with more, each slice copies its rows.

    Returns [Error] with the constraint that failed unless [shards >= 1]
    divides [heads] and [intermediate] and every per-shard slice is a
    multiple of the layer's GEMM block. [shards = 1] always succeeds and
    is {!create}'s model: its one region per stage runs inline. *)
val shard : t -> shards:int -> (t, string) result

(** The shard count: 1 after {!create}, [shards] after {!shard}. *)
val shards : t -> int

type kv_cache

(** Fresh empty cache with {e contiguous} storage: capacity-backed
    per-layer buffers ([cap] initial rows, default 16) that double in
    place as the sequence grows — decode steps append without
    reallocating the cache. *)
val new_cache : ?cap:int -> t -> kv_cache

(** Fresh empty cache with {e paged} storage: a per-request block table
    over the given shared arena. Fixed-size token blocks are acquired on
    demand and freed by {!truncate_cache}/{!reset_cache}; gather scratch
    bridges the block table to the same dense attention kernels the
    contiguous path runs, so the two policies are bit-identical. Raises
    [Invalid_argument] when the arena's layers/hidden do not match the
    model. *)
val new_paged_cache : t -> Kv.Block_manager.t -> kv_cache

(** The block table of a paged cache ([None] for contiguous). *)
val cache_seq : kv_cache -> Kv.Seq.t option

(** [attach_prefix c ~blocks ~len] seeds an empty paged cache with shared
    prefix blocks (a prefix-trie hit) covering the first [len] prompt
    tokens; each block gains a reference, and the first append past a
    mid-block [len] copies-on-write. The suffix is then computed with
    {!extend}. *)
val attach_prefix : kv_cache -> blocks:int array -> len:int -> unit

(** Tokens currently cached. *)
val cache_len : kv_cache -> int

(** Allocated rows (contiguous: per-layer buffer capacity; paged: block
    table size in rows). *)
val cache_capacity : kv_cache -> int

(** Rewind to empty {e keeping the allocated buffers}, so the cache can be
    recycled for a new session without touching the allocator (the KV-pool
    fast path in [lib/serve]). *)
val reset_cache : kv_cache -> unit

(** [truncate_cache c len] rewinds the cache to [len] valid rows,
    discarding rows a partially-completed (failed) step appended.
    Contiguous buffers keep their capacity; a paged table frees exactly
    the tail blocks past row [len-1]. Either way a retried step
    re-appends into writable storage and recovery is bit-identical. *)
val truncate_cache : kv_cache -> int -> unit

(** Snapshot the cache's valid rows into an arena-independent dense
    {!Kv.Block_manager.export} (either storage policy). A pure read —
    the cache stays the live copy of the session's KV state. *)
val export_cache : kv_cache -> Kv.Block_manager.export

(** [import_cache c ?attach e] restores a snapshot into an {e empty}
    cache — the commit point of a live migration. Paged caches may
    [?attach] destination-trie blocks covering the first [alen]
    (block-aligned) rows as [(blocks, alen)] — bit-identical to the
    exported bytes, since every replica runs the same deterministic
    engine over the same prefix — and the remainder is imported as
    private blocks. On arena denial the destination is left untouched
    and [Kv.Seq.Out_of_blocks] raises, so the caller's snapshot remains
    the one live copy. Raises [Invalid_argument] on shape mismatch. *)
val import_cache :
  kv_cache -> ?attach:int array * int -> Kv.Block_manager.export -> unit

(** [prefill t cache embeddings] runs the prefill phase over
    [n_in x hidden] input embeddings, fills the cache and returns the last
    hidden state [1 x hidden] ("first token" computation). *)
val prefill : ?nthreads:int -> t -> kv_cache -> Tensor.t -> Tensor.t

(** [decode_step t cache emb] appends one token ([1 x hidden]) and returns
    its output hidden state ("next token" computation). *)
val decode_step : ?nthreads:int -> t -> kv_cache -> Tensor.t -> Tensor.t

(** [extend t cache embs] appends [n] token rows over an already-filled
    cache and returns all [n] output rows ([n x hidden]). Per-row outputs
    are bit-identical to feeding the same tokens one {!decode_step} at a
    time — the exactness that prefix-hit suffix prefills and speculative
    verification rely on. On an empty cache, [last_row (extend ...)] is
    {!prefill}. *)
val extend : ?nthreads:int -> t -> kv_cache -> Tensor.t -> Tensor.t

(** Copy of the last row of an [n x hidden] tensor (the "first token"
    hidden state of a prefill-shaped output). *)
val last_row : Tensor.t -> Tensor.t

(** Full-sequence forward without a cache (reference for tests). *)
val forward_full : ?nthreads:int -> t -> Tensor.t -> Tensor.t

(** [draft t ~layers] — a proposer model sharing the target's first
    [layers] decoder layers, weights and shards (no copy; clamped to
    [1, t.layers]). The draft half of speculative decoding: cheap
    proposals whose acceptance is decided by the target's batched
    verification pass. *)
val draft : t -> layers:int -> t

(** Deterministic synthetic embedding matrix for a token-id sequence. *)
val embed : t -> int array -> Tensor.t

(** FLOPs of the prefill phase for [n_in] tokens. *)
val prefill_flops : config -> n_in:int -> float

(** FLOPs of one decode step at cache length [past]. *)
val decode_flops : config -> past:int -> float

(** Total parameter bytes at a given precision (weights streamed per next
    token — the bandwidth-bound term of Fig. 11). *)
val param_bytes : config -> Datatype.t -> float
