(** Front-end router: spreads an arrival stream across N
    {!Serve.Scheduler} replicas with pluggable placement (round-robin /
    join-shortest-queue / deadline-aware), optional tensor-parallel
    sharding inside each replica ({!Llm.shard}, bit-identical), and
    optional prefill/decode disaggregation behind a {!Prefiller} +
    {!Kv_handoff}.

    Quarantine protocol: a quarantined replica receives no new routes or
    adoptions; its queued requests are evicted (from queue {e and}
    ledger) and re-routed with their original arrival stamps, so
    deadlines never reset; its in-flight sessions drain normally. Each
    request lives in exactly one decode ledger at any time — the
    conservation invariant {!Chaos} checks. The router's own ledger
    (each request exactly once) is the fleet's source of truth.

    Hard failure ({!hard_fail}) treats the replica as dead: even its
    in-flight sessions move — detached ({!Serve.Scheduler.detach_next}),
    carried through a bounded migration channel (backpressure is
    structured and retryable, never a drop), and resumed on healthy
    replicas. The destination import is the commit point; the source KV
    is freed only after, so faults mid-migration (the
    [cluster.migrate.export]/[cluster.migrate.import] sites) leave
    exactly one live copy. Migrations are counted under
    [cluster.migrations.{started,completed,failed}] with latencies in
    the [cluster.migration_ms] histogram.

    Fault site [cluster.router.route] fires per routing decision:
    [Deny] rejects at the front door (accounted), [Exn] degrades to
    first-healthy placement. Per-replica queue/active/quarantine levels
    and fleet in-flight + SLO-burn totals are published as
    {!Telemetry.Gauge}s every step. *)

type placement = Round_robin | Jsq | Deadline_aware

val placement_name : placement -> string

(** ["rr"]/["round-robin"], ["jsq"], ["deadline"]. *)
val placement_of_string : string -> placement option

type config = {
  replicas : int;  (** decode replicas *)
  shards : int;  (** tensor-parallel width inside each replica *)
  disaggregate : bool;  (** dedicated prefill replica + KV handoff *)
  placement : placement;
  scheduler : Serve.Scheduler.config;  (** per-replica template *)
  handoff_cap : int;
  prefill_queue : int;
}

(** 2 replicas, unsharded, aggregated (no prefill tier), round-robin. *)
val default_config : config

type t

(** [Error] when [replicas < 1], or {!Llm.shard}'s error when the model
    cannot be split [shards] ways (including [shards < 1]). *)
val create : ?config:config -> Llm.t -> (t, string) result

val config : t -> config
val schedulers : t -> Serve.Scheduler.t array
val prefiller : t -> Prefiller.t option
val handoff_depth : t -> int

(** Route one request (ledger, placement, replica admission). [false] =
    rejected — by fault-denial at the router, by having no healthy
    replica, or by the chosen replica's own admission control. *)
val submit : t -> now:float -> Serve.Request.t -> bool

(** One fleet iteration: prefiller step, handoff adoption into healthy
    replicas, one scheduler step per replica (quarantined ones included —
    their batches must drain), gauge publication. *)
val step : t -> now:(unit -> float) -> bool

val busy : t -> bool
val drain : t -> now:(unit -> float) -> unit

(** Stop routing to replica [i], evict + re-route its queued requests
    (original arrival stamps), let its in-flight batch drain. Idempotent. *)
val quarantine : t -> int -> unit

(** [hard_fail t ~now i] — replica [i] died: quarantine it, then detach
    every in-flight session and migrate each through the bounded
    migration channel to a healthy replica chosen by the placement
    policy (original arrival stamps preserved inside the requests).
    Sessions no replica can take right now stay in the channel and are
    retried every {!step}; with no healthy replica at all they fail
    terminally (exactly one KV release) rather than spin. Idempotent. *)
val hard_fail : t -> now:float -> int -> unit

(** Rejoin replica [i], gated on a health probe (one successful no-op
    engine step — {!Serve.Scheduler.probe}) rather than a bare flag
    flip. [false]: the probe failed, the replica stays quarantined.
    [true] on an already-healthy replica. Hard-failed replicas may
    rejoin too (the probe models their restart). *)
val unquarantine : t -> int -> bool

val is_quarantined : t -> int -> bool
val healthy : t -> int list

(** Detached sessions currently in transit (0 once drained). *)
val migration_depth : t -> int

(** Router ledger, oldest first — each request exactly once, regardless
    of re-routes or disaggregation. *)
val requests : t -> Serve.Request.t list

val tokens_emitted : t -> int

(** Every KV pool in the fleet (decode replicas + prefiller). *)
val pools : t -> Serve.Kv_pool.t list

(** Telemetry names published by the router. *)
val routed_name : string

val rerouted_name : string
val resubmitted_name : string
val rejected_name : string
val route_faults_name : string
val quarantines_name : string
val rejoins_name : string
val hard_fails_name : string
val adopted_name : string
val migrations_started_name : string
val migrations_completed_name : string
val migrations_failed_name : string
val migrate_backpressure_name : string
val migration_ms_name : string
val fleet_inflight_name : string
val fleet_slo_ttft_name : string
val fleet_slo_deadline_name : string
val replica_queue_name : int -> string
val replica_active_name : int -> string
val replica_quarantined_name : int -> string

(** Telemetry replica indices in use (decode replicas, plus the prefill
    replica's when disaggregated). *)
val replica_indices : t -> int list
