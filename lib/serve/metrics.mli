(** Serving telemetry names and end-of-run aggregation: the scheduler
    observes latencies into {!Telemetry.Histogram}s and state into
    counters under these well-known names; [collect] folds the request
    ledger and histograms into one printable summary. *)

(** TTFT histogram name (milliseconds). *)
val ttft_ms_name : string

(** Per-output-token (inter-token) latency histogram name (ms). *)
val tpot_ms_name : string

val submitted_name : string
val rejected_name : string
val completed_name : string
val kv_created_name : string
val kv_reused_name : string
val kv_denied_name : string
val cancelled_name : string
val failed_name : string

(** SLO-burn counters: first token produced past the deadline, and
    requests that missed their deadline outright (cancelled, refused as
    already blown, or finished late). *)
val slo_ttft_breaches_name : string

val slo_deadline_breaches_name : string

(** Speculative decoding counters: draft tokens offered for verification,
    confirmed by the target's batched pass, and rolled back. *)
val spec_proposed_name : string

val spec_accepted_name : string
val spec_rejected_name : string

(** {!Telemetry.Gauge} names (levels, not counts): instantaneous queue
    depth, KV-pool occupancy/free, KV high-water mark in rows, and the
    scheduler's current load-shedding batch limit. *)
val queue_depth_name : string

val kv_in_use_name : string
val kv_free_name : string
val kv_peak_rows_name : string
val eff_batch_name : string

(** {2 Per-replica and fleet names}

    A scheduler created with [replica = Some i] observes into the
    [serve.r<i>.*] names {e alongside} the global [serve.*] names, so a
    cluster run exposes both views through {!Telemetry.Expose}. *)

val replica_ttft_ms_name : int -> string
val replica_tpot_ms_name : int -> string
val replica_submitted_name : int -> string
val replica_rejected_name : int -> string
val replica_completed_name : int -> string
val replica_cancelled_name : int -> string
val replica_failed_name : int -> string
val replica_slo_ttft_breaches_name : int -> string
val replica_slo_deadline_breaches_name : int -> string

(** Fleet rollup histograms, rebuilt by {!collect_fleet} from the
    per-replica histograms via [Telemetry.Histogram.merge_into]. *)
val fleet_ttft_ms_name : string

val fleet_tpot_ms_name : string

type percentiles = { p50 : float; p95 : float; p99 : float }

(** p50/p95/p99 of one histogram (nan while empty). *)
val percentiles_of : Telemetry.Histogram.t -> percentiles

type summary = {
  submitted : int;
  rejected : int;
  completed : int;
  cancelled : int;  (** terminated by deadline enforcement *)
  failed : int;  (** prefill/decode failed after bounded retries *)
  goodput : int;  (** completed within their deadline *)
  tokens : int;
  elapsed_s : float;
  tokens_per_s : float;
  ttft_ms : percentiles;
  tpot_ms : percentiles;
  spec_proposed : int;  (** draft tokens offered for verification *)
  spec_accepted : int;  (** draft tokens the target confirmed *)
  spec_rejected : int;  (** draft tokens rolled back (blocks freed) *)
}

(** [collect ~requests ~tokens ~elapsed_s] — [requests] is the full
    submission ledger (finished, rejected and in-flight alike); latency
    percentiles are read from the global histograms. *)
val collect : requests:Request.t list -> tokens:int -> elapsed_s:float -> summary

(** Fleet final report for a multi-replica run: merges every replica's
    latency histograms into the fleet rollups ({!fleet_ttft_ms_name} /
    {!fleet_tpot_ms_name}) via [Histogram.merge_into] and computes the
    percentiles over the merged distribution, never over a single
    replica's view. [requests] is the deduplicated fleet ledger. *)
val collect_fleet :
  replicas:int list ->
  requests:Request.t list ->
  tokens:int ->
  elapsed_s:float ->
  summary

val summary_to_string : summary -> string
val print : summary -> unit
