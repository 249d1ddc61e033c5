(** Chaos harness: drives a {!Router} fleet — a lone scheduler is a
    1-replica fleet — under a seeded {!Fault} plan, optionally with a
    mid-run replica quarantine or hard kill, with the {!Team} watchdog
    armed as configured and the {!Tpp_check} numeric guard sampling
    kernel output. It then checks the conservation invariants: the fleet
    drains within the step budget; the router ledger conserves every
    request exactly once (terminal states sum to submissions, no id
    duplicated, each id in at most one decode replica's ledger —
    including ids that migrated off a dead replica); nothing is
    double-served; a quarantined replica receives no work after the
    quarantine; a hard-failed replica's ledger is frozen at the kill
    with only terminal entries; every started migration either completes
    or fails (none vanish in transit); all KV pools, the handoff channel
    and the migration channel drain; paged arenas are conserved (free
    blocks plus prefix-trie pins equal the arena size); no handoff cache
    is released twice; and every finished request's outputs are
    bit-identical to a fault-free solo sequential greedy replay on the
    same model — the one oracle. When the flight recorder is enabled,
    trace conservation is checked too: every routed request leaves a
    complete causal timeline ({!Telemetry.Trace.check}) and every
    migrated request carries exactly one detach→resume join. The drive
    is virtual-clock and the plan is invocation-count triggered, so a
    seed reproduces the fault schedule and the ledger everywhere (the
    watchdog counters are wall-clock and may differ between runs). *)

type config = {
  seed : int;
  requests : int;
  replicas : int;
  shards : int;  (** tensor-parallel width inside each replica *)
  disaggregate : bool;
  placement : Router.placement;
  prompt_len : Serve.Load_gen.dist;
  new_tokens : Serve.Load_gen.dist;
  shared_prefix : int;
      (** tokens of a common prefix prepended to every prompt (0 = none):
          with a paged scheduler config this exercises prefix sharing and
          COW under faults *)
  arrival_gap_s : float;  (** virtual seconds between arrivals *)
  deadline_s : float;
  dt_s : float;  (** virtual seconds per drive step *)
  scheduler : Serve.Scheduler.config;
  handoff_cap : int;
  quarantine_step : int;
      (** drive step at which the quarantine fires; -1 = never *)
  quarantine_replica : int;
  hard_kill_step : int;
      (** drive step at which a replica hard-fails ({!Router.hard_fail} —
          in-flight sessions migrate); -1 = never *)
  hard_kill_replica : int;
  plan : Fault.plan option;
      (** [None] = {!default_plan} [~replicas seed] *)
  watchdog : Team.watchdog option;  (** installed for the drive *)
  max_steps : int;  (** liveness bound on the drive loop *)
}

(** A lone scheduler as a 1-replica fleet: seed 42, 24 requests, batch 4
    over 2 threads, retries and numeric checks on, watchdog armed, no
    quarantine or kill; roughly a 2 s run. *)
val solo : config

(** 24 requests over 3 single-threaded replicas, replica 1 quarantined
    at step 40; no watchdog, no hard kill. *)
val default : config

(** {!default} with the quarantine replaced by a hard kill of replica 1
    at step 12, one arrival per drive step and longer decodes — the
    victim dies with sessions mid-decode, so live migration (not
    drain-in-place) is what the invariants exercise. *)
val hard_kill : config

(** The default fault plan. For [replicas = 1], one rule per fault-site
    class a lone scheduler reaches (serve transients, KV denial, paged
    KV, JIT failure, NaN poison, worker exception/stall/death), with
    periods calibrated so injected faults behave as transients on
    [Llm.tiny]. For a fleet, the router, prefill, handoff and migration
    sites plus the serve-level transients. All periodic, so recovery —
    not wholesale failure — is exercised. *)
val default_plan : replicas:int -> int -> Fault.plan

type report = {
  steps : int;
  terminated : bool;
  submitted : int;
  finished : int;
  rejected : int;
  cancelled : int;
  failed : int;
  routed : int;
  rerouted : int;  (** moved off the quarantined replica *)
  resubmitted : int;  (** re-route resubmissions (not double-counted) *)
  adopted : int;  (** decode sessions adopted from the handoff *)
  route_faults : int;
  migrations_started : int;  (** in-flight sessions detached at the kill *)
  migrations_completed : int;  (** resumed on a healthy replica *)
  migrations_failed : int;  (** failed terminally (still conserved) *)
  injected : int;
  retries : int;
  shed : int;
  denied : int;  (** KV admission denials *)
  numeric_errors : int;  (** non-finite kernel outputs caught *)
  trips : int;  (** watchdog trips (wall-clock) *)
  quarantined : int;  (** pool workers quarantined by the watchdog *)
  pages_allocated : int;  (** paged KV: arena blocks handed out *)
  pages_freed : int;
  cow_copies : int;
  prefix_hits : int;
  double_released : int;  (** must be 0 *)
  compared : int;  (** finished requests checked for bit-identity *)
  mismatched : int;  (** must be 0 *)
  fleet_slo_ttft : int;  (** fleet SLO-burn gauges after the drain *)
  fleet_slo_deadline : int;
  traces_checked : int;
      (** causal timelines verified complete ({!Telemetry.Trace.check});
          0 when the flight recorder is disabled *)
  migrated_traced : int;
      (** timelines carrying a detach→resume join — each checked to have
          exactly one (a migrated KV copy moves exactly once) *)
  violations : string list;  (** empty = all invariants held *)
}

(** Builds the model and fleet, installs the plan, drives to drain (or
    [max_steps]), restores fault, watchdog and numeric-guard state, and
    verifies the invariants. A non-empty [violations] also triggers a
    flight-recorder post-mortem dump under reason [chaos.invariant]. *)
val run : ?config:config -> unit -> report

val report_to_string : report -> string
