(** Pool of recycled {!Llm.kv_cache}s, owning the KV storage policy.

    [Contiguous] hands out capacity-backed per-request buffers (a
    released cache is rewound but keeps its buffers, so steady-state
    serving does not touch the allocator). [Paged] hands out block
    tables over one shared {!Kv.Block_manager} arena — fixed-size token
    blocks, copy-on-write sharing, and (optionally) a {!Kv.Prefix} trie
    deduplicating common prompt prefixes across requests. Occupancy
    (in-use / free / created / reused / peak rows) is published under
    the [serve.kv_pool.*] telemetry names; a paged pool additionally
    publishes the [kv.pages.*] arena gauges. *)

type t

type policy =
  | Contiguous
  | Paged of { block_size : int; num_blocks : int; prefix : bool }

(** [create ?init_cap ?max_free ?max_live ?policy llm] — [init_cap]
    rows are pre-allocated per layer in freshly created contiguous
    caches; at most [max_free] rewound caches are retained for reuse; at
    most [max_live] caches may be acquired concurrently (default:
    unbounded). A [Paged] policy builds its own arena of [num_blocks]
    blocks of [block_size] tokens. *)
val create :
  ?init_cap:int ->
  ?max_free:int ->
  ?max_live:int ->
  ?policy:policy ->
  Llm.t ->
  t

val policy : t -> policy

(** The shared arena of a paged pool ([None] for contiguous). *)
val manager : t -> Kv.Block_manager.t option

(** The prefix trie of a paged pool with [prefix = true]. *)
val prefix_cache : t -> Kv.Prefix.t option

(** [`Cache c]: a recycled free cache when available, else a fresh one.
    [`Denied]: the pool is at [max_live] live caches (or fault injection
    simulated memory pressure) — counted under [serve.kv_pool.denied];
    the caller must degrade, the pool will not grow unboundedly. *)
val acquire : t -> [ `Cache of Llm.kv_cache | `Denied ]

(** [acquire_for t ~prompt ~total_rows ()] — prefix-aware,
    admission-gated acquire. [total_rows] is the request's whole KV
    footprint (prompt plus generated tokens): a paged pool also denies
    when the arena cannot cover the un-shared part, shedding at
    admission instead of failing mid-decode. On [`Cache (c, matched)]
    the first [matched] prompt tokens are already cached via shared
    prefix blocks (0 when no trie, no hit, or contiguous policy) —
    prefill only the suffix. When [owner] (the requesting trace id) is
    given, the grant or denial is also emitted as a [Trace_kv] event in
    that request's causal timeline. *)
val acquire_for :
  t ->
  ?owner:int ->
  prompt:int array ->
  total_rows:int ->
  unit ->
  [ `Cache of Llm.kv_cache * int | `Denied ]

(** [import t ~prompt ~total_rows e] — admission-gated restore of a
    migrated session's KV snapshot (the destination half of a live
    migration). Same admission discipline as {!acquire_for}, but the
    cache is filled from the export instead of a fresh prefill: matched
    prompt chunks re-attach against this replica's trie, the remainder
    is imported as private blocks. [`Denied] (admission, arena pressure,
    or a mid-import denial — in which case the half-acquired cache is
    returned to the pool) leaves the destination untouched, so the
    caller's snapshot stays the one live copy. [owner] as in
    {!acquire_for}. *)
val import :
  t ->
  ?owner:int ->
  prompt:int array ->
  total_rows:int ->
  Kv.Block_manager.export ->
  [ `Cache of Llm.kv_cache | `Denied ]

(** [register t ~prompt cache] — after a successful prefill, pin the
    prompt's full blocks in the prefix trie so later requests sharing
    the prefix reuse them. No-op for contiguous pools / no trie. *)
val register : t -> prompt:int array -> Llm.kv_cache -> unit

(** Rewind and return a cache to the pool (a paged cache's blocks go
    back to the arena). The caller must not use it afterwards. *)
val release : t -> Llm.kv_cache -> unit

val in_use : t -> int
val free_count : t -> int

(** Largest cache capacity (rows) ever released (high-water mark). *)
val peak_rows : t -> int

val created : t -> int
val reused : t -> int

(** Acquires refused so far. *)
val denied : t -> int
