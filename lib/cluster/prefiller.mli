(** Dedicated prefill replica (prefill/decode disaggregation): runs only
    the compute-bound first-token phase against its own {!Serve.Kv_pool},
    then hands the filled KV state to the decode tier through a
    {!Kv_handoff}. The handoff entry's exactly-once release returns the
    cache to this pool when the decode side retires the session.

    Accounting split: the prefiller counts submission, TTFT and the first
    token; the adopting decode replica counts the rest — together the two
    sides cover each request exactly once. The [cluster.prefill] fault
    site fires ahead of each prefill (no retry here; retry-with-rewind
    lives in the decode tier's scheduler). *)

type config = {
  max_queue : int;
  kv_cap : int;  (** initial rows of pooled KV caches *)
  max_live : int;  (** concurrent live caches (incl. in-handoff ones) *)
  replica : int;  (** telemetry index: observes into [serve.r<i>.*] *)
}

(** queue 64, 16 KV rows, 8 live caches, replica 0. *)
val default_config : config

type t

(** [create ?config ?engine ?policy llm ~handoff] — the default engine
    is [Llm.extend] on [llm]; the router passes its replicas' engine,
    over [Llm.shard llm ~shards]. [policy] is the pool's KV storage policy
    (default contiguous): under [Paged] the handoff carries block
    tables over this prefiller's arena — the decode tier appends into
    the same blocks and the exactly-once release returns them here. *)
val create :
  ?config:config ->
  ?engine:Serve.Scheduler.engine ->
  ?policy:Serve.Kv_pool.policy ->
  Llm.t ->
  handoff:Kv_handoff.t ->
  t

(** Mirrors [Scheduler.submit]: [false] = rejected (queue full or
    deadline already blown). *)
val submit : t -> now:float -> Serve.Request.t -> bool

(** Run at most one prefill (pop head, acquire KV, prefill, hand off);
    [false] when nothing could progress — empty queue, full handoff, or
    a tolerated KV denial. Single-token requests finish here; a refused
    handoff or a failed prefill reclaims the cache and fails the
    request. *)
val step : t -> now:(unit -> float) -> bool

val busy : t -> bool
val queue_depth : t -> int
val tokens_emitted : t -> int
val pool : t -> Serve.Kv_pool.t

(** Submission ledger, oldest first. *)
val requests : t -> Serve.Request.t list
