(** Continuous-batching serving loop over one {!Llm.t}: a bounded
    admission queue with explicit rejection, an admission policy knob
    (FCFS / earliest-deadline-first), per-admission prefill, and one
    decode step per active session per iteration — requests join and
    leave the running batch at token granularity. KV caches come from a
    {!Kv_pool} and return to it on completion. Latencies land in the
    [serve.*] telemetry histograms/counters ({!Metrics}).

    Hardened failure paths: deadline enforcement cancels sessions past
    their SLO and returns their KV to the pool; failing prefill/decode
    steps are retried up to [max_retries] times after rewinding the KV
    cache to its pre-step state (so recovery is bit-identical to a run
    that never failed), then marked [Failed]; a [`Denied] KV acquire
    sheds load by shrinking the effective batch limit, which grows back
    after a denial-free recovery window.

    The prefill tier of a disaggregated fleet is the same loop, created
    with a {!handoff}: it decodes nothing, and hands each prefilled
    request to the decode tier instead.

    Sessions are mathematically independent, so batched decoding produces
    bit-identical hidden states to running each session alone with
    [Llm.prefill]/[Llm.decode_step] — wall-clock time feeds only
    telemetry, never control flow (with finite deadlines, the caller's
    [now] clock becomes part of the schedule; the chaos harness drives a
    virtual clock to stay deterministic). *)

type policy = Fcfs | Edf  (** earliest absolute deadline first *)

val policy_name : policy -> string

(** ["fcfs"], ["deadline"] (or ["edf"]). *)
val policy_of_string : string -> policy option

type config = {
  max_queue : int;  (** bounded admission queue; submissions beyond reject *)
  max_batch : int;  (** max concurrently decoding sessions *)
  policy : policy;
  nthreads : int option;  (** team size for prefill/decode kernels *)
  kv_cap : int;  (** initial rows of pooled KV caches *)
  max_retries : int;  (** extra attempts for a failing prefill/decode step *)
  check_numerics : bool;
      (** run each step's output through [Tpp_check.finite_2d] so NaN/Inf
          surfaces as a retryable structured error *)
  replica : int option;
      (** cluster replica index: observe into the [serve.r<i>.*] telemetry
          names alongside the global [serve.*] names *)
  paged : bool;  (** paged KV storage over a shared block arena *)
  block_size : int;  (** tokens per KV block (paged only) *)
  num_blocks : int;  (** arena size in blocks (paged only) *)
  prefix_share : bool;  (** dedupe shared prompt prefixes (paged only) *)
  spec_k : int;
      (** speculative decoding: draft tokens proposed per round; 0 = off *)
  draft_layers : int;  (** decoder layers of the draft model *)
  spec_accuracy : float;
      (** deterministic draft-acceptance model: probability a proposal
          matches the truth, drawn from a hash of (request id, position)
          so runs replay exactly *)
  online_tune : bool;
      (** enable the online per-shape spec cache ({!Spec_cache}): GEMM
          shapes arriving in the serve path are tuned on a background
          domain and hot-swapped after a bit-identity check; decode
          outputs are unchanged, only the loop instantiation is *)
}

(** queue 64, batch 8, FCFS, default threads, 16 KV rows, 2 retries,
    numeric checks off, no replica index; contiguous KV
    (16-token blocks, 64-block arena, prefix sharing when paged);
    speculation off (k=0, 1 draft layer, 75% modelled accuracy); online
    tuning off. *)
val default_config : config

(** Pluggable model entry point. One batched [extend] covers every
    phase — prefill (empty cache, last row = first token), single-token
    decode (one row), speculative verification ([k+1] rows) — because
    per-row outputs are bit-identical across batch shapes. The default
    engine is [Llm.extend] on the scheduler's model with the config's
    [nthreads]; a cluster replica is simply created on
    [Llm.shard llm ~shards], which is bit-identical. A custom engine
    wraps the call (for instance, to time it). *)
type engine = { extend : Llm.kv_cache -> Tensor.t -> Tensor.t }

(** The decode tier's channel, as the prefill tier of a disaggregated
    fleet sees it. [room ()]: the channel can take one more request.
    [push req cache ~release] hands over a prefilled request, its cache
    and the exactly-once [release] that returns the cache to this
    scheduler's pool; [`Full] or an exception refuses the push. *)
type handoff = {
  room : unit -> bool;
  push :
    Request.t ->
    Llm.kv_cache ->
    release:(Llm.kv_cache -> unit) ->
    [ `Ok | `Full ];
}

type t

(** [create ?config ?engine ?handoff llm]. With [handoff] the scheduler
    is a prefill tier: it admits at most one request a step, and none
    while [room ()] is false. After the prefill, a request with more
    than one token to emit is pushed instead of joining the batch (no
    draft-model prefill); a refused push releases the cache and fails
    the request. A single-token request finishes in place. The tier
    counts the submission, the TTFT and the first token; the decode
    replica that adopts the session ({!adopt}) counts the rest. *)
val create : ?config:config -> ?engine:engine -> ?handoff:handoff -> Llm.t -> t
val config : t -> config
val pool : t -> Kv_pool.t

(** [submit t ~now req] — [false] means rejected: the queue is full, or
    the request's deadline budget is already non-positive (it could never
    meet its SLO). The request is stamped [Rejected] and never runs.
    [now] is the serving-clock timestamp of arrival. *)
val submit : t -> now:float -> Request.t -> bool

(** One serving iteration: enforce deadlines (cancel late sessions and
    queued requests), admit up to the effective batch limit (prefill +
    TTFT, with retries), then one decode step for every active session
    (with retries). Returns [false] when there was nothing to do. *)
val step : t -> now:(unit -> float) -> bool

(** Run [step] until queue and batch are empty. Terminates even under
    persistent faults: bounded retries end in [Failed], and a KV denial
    while the pool lends out no cache fails the request rather than
    spinning. *)
val drain : t -> now:(unit -> float) -> unit

val busy : t -> bool
val queue_depth : t -> int
val active_count : t -> int
val tokens_emitted : t -> int

(** Submission ledger, oldest first (includes rejected and in-flight). *)
val requests : t -> Request.t list

(** Completed requests in completion order. *)
val finished : t -> Request.t list

(** {2 Cluster hooks} *)

(** [adopt t ~now ~release req cache] — take over the decode phase of a
    request whose prefill ran elsewhere (prefill/decode disaggregation).
    [req] must be in state [Decoding] with its first token already in
    [outputs]; [cache] holds the prefilled KV state and is returned via
    [release] (to its owning pool) on retirement. [`Full] means the batch
    is at its (possibly shed) limit and the caller should retry later.
    Adoption adds the request to this scheduler's ledger but bumps
    neither [submitted] nor token counts — the prefill side already
    accounted for the submission and the first token. *)
val adopt :
  t ->
  now:float ->
  release:(Llm.kv_cache -> unit) ->
  Request.t ->
  Llm.kv_cache ->
  [ `Adopted | `Full ]

(** Remove every queued (not yet admitted) request from the queue {e and}
    the ledger, returning them oldest-first — the quarantine path: the
    router re-routes them to healthy replicas (re-submission re-enters
    them into that replica's ledger, preserving the original arrival
    stamp when called with [~now:req.arrival_s]). Active sessions are
    untouched and drain normally. *)
val evict_queued : t -> Request.t list

(** Like {!submit} but without bumping [serve.submitted] — the re-route
    path: the original submission was already counted on the evicting
    replica, and the router tallies the event under its own
    [cluster.router.resubmitted] counter, so fleet telemetry reconciles
    with the ledger. *)
val resubmit : t -> now:float -> Request.t -> bool

(** {2 Live migration (checkpoint/restore of in-flight sessions)} *)

(** A detached in-flight session: the request (with its pre-drawn
    generator ids — the decode position is rng-free), the tokens emitted
    so far, and a dense arena-independent KV snapshot. [d_export] is the
    one live copy of the KV state between detach and a successful
    destination import; [d_release] frees the source cache exactly once
    (idempotent) and must be called only after the destination commits
    or the migration fails terminally. *)
type detached = {
  d_req : Request.t;
  d_emitted : int;
  d_export : Kv.Block_manager.export;
  d_release : unit -> unit;
}

(** [detach_next t ~now_s] checkpoints the oldest in-flight session and
    removes it from the active set and the ledger (the destination's
    {!resume} re-enters it). [`Failed req]: [before_export] (the
    router's [cluster.migrate.export] fault hook) raised, so the session
    failed in place — terminal, still ledgered, cache released; nothing
    is silently lost. [`Empty]: no in-flight sessions. *)
val detach_next :
  ?before_export:(unit -> unit) ->
  t ->
  now_s:float ->
  [ `Detached of detached | `Failed of Request.t | `Empty ]

(** [resume t ~now d] — the destination half of a migration and its
    commit point: import the KV snapshot through this replica's pool
    (prefix re-attach, admission gating), then adopt the session at its
    saved decode position. Bumps neither [submitted] nor token counts.
    [`Full]/[`Denied] (and an exception from [before_import], the
    [cluster.migrate.import] fault hook) leave this replica untouched
    and the package intact — the snapshot stays the one live copy and
    the caller can retry elsewhere. *)
val resume :
  ?before_import:(unit -> unit) ->
  t ->
  now:float ->
  detached ->
  [ `Resumed | `Full | `Denied ]

(** Health probe: one single-token engine extend on a private scratch
    cache (bypassing the pool), checked finite — the "successful no-op
    step" gating a quarantined replica's rejoin. *)
val probe : t -> bool
