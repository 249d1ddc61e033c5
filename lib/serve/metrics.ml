(* Serving telemetry names and end-of-run aggregation. Latencies are
   observed into log-bucketed Telemetry histograms (milliseconds) while
   the scheduler runs; counters/gauges cover queue and KV-pool state.
   [collect] folds the request ledger + histograms into one summary the
   CLI and bench print and export. *)

(* histogram names (unit: milliseconds) *)
let ttft_ms_name = "serve.ttft_ms"
let tpot_ms_name = "serve.tpot_ms"

(* counters (monotonic) *)
let submitted_name = "serve.submitted"
let rejected_name = "serve.rejected"
let completed_name = "serve.completed"
let kv_created_name = "serve.kv_pool.created"
let kv_reused_name = "serve.kv_pool.reused"
let kv_denied_name = "serve.kv_pool.denied"
let cancelled_name = "serve.cancelled"
let failed_name = "serve.failed"

(* SLO-burn counters: how often the service broke its promises. TTFT
   breach = first token produced after the request's deadline; deadline
   breach = the request missed its deadline outright (cancelled by the
   sweep, refused at submit as already blown, or finished late). *)
let slo_ttft_breaches_name = "serve.slo.ttft_breaches"
let slo_deadline_breaches_name = "serve.slo.deadline_breaches"

(* speculative decoding: draft proposals issued, accepted by the target's
   batched verification pass, and rolled back (blocks freed) *)
let spec_proposed_name = "serve.spec.proposed"
let spec_accepted_name = "serve.spec.accepted"
let spec_rejected_name = "serve.spec.rejected"

(* gauges (levels, Telemetry.Gauge) *)
let queue_depth_name = "serve.queue_depth"
let kv_in_use_name = "serve.kv_pool.in_use"
let kv_free_name = "serve.kv_pool.free"
let kv_peak_rows_name = "serve.kv_pool.peak_rows"
let eff_batch_name = "serve.effective_batch"

(* per-replica metric names: a scheduler created with [replica = Some i]
   observes into these alongside the global serve.* names, so a cluster
   run exposes both the per-replica split and the process-wide totals *)
let replica_prefix i = Printf.sprintf "serve.r%d." i
let replica_ttft_ms_name i = replica_prefix i ^ "ttft_ms"
let replica_tpot_ms_name i = replica_prefix i ^ "tpot_ms"
let replica_submitted_name i = replica_prefix i ^ "submitted"
let replica_rejected_name i = replica_prefix i ^ "rejected"
let replica_completed_name i = replica_prefix i ^ "completed"
let replica_cancelled_name i = replica_prefix i ^ "cancelled"
let replica_failed_name i = replica_prefix i ^ "failed"
let replica_slo_ttft_breaches_name i = replica_prefix i ^ "slo.ttft_breaches"

let replica_slo_deadline_breaches_name i =
  replica_prefix i ^ "slo.deadline_breaches"

(* fleet rollup histograms: rebuilt by [collect_fleet] from the
   per-replica histograms via Histogram.merge_into *)
let fleet_ttft_ms_name = "cluster.fleet.ttft_ms"
let fleet_tpot_ms_name = "cluster.fleet.tpot_ms"

type percentiles = { p50 : float; p95 : float; p99 : float }

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

let percentiles_of h =
  { p50 = Telemetry.Histogram.quantile h 0.50;
    p95 = Telemetry.Histogram.quantile h 0.95;
    p99 = Telemetry.Histogram.quantile h 0.99 }

let collect ~(requests : Request.t list) ~tokens ~elapsed_s =
  let count st =
    List.length (List.filter (fun r -> r.Request.state = st) requests)
  in
  { submitted = List.length requests;
    rejected = count Request.Rejected;
    completed = count Request.Finished;
    cancelled = count Request.Cancelled;
    failed = count Request.Failed;
    goodput = List.length (List.filter Request.met_deadline requests);
    tokens;
    elapsed_s;
    tokens_per_s = (if elapsed_s > 0.0 then float_of_int tokens /. elapsed_s
                    else 0.0);
    ttft_ms = percentiles_of (Telemetry.Histogram.find_or_create ttft_ms_name);
    tpot_ms = percentiles_of (Telemetry.Histogram.find_or_create tpot_ms_name);
    spec_proposed = Telemetry.Counter.value spec_proposed_name;
    spec_accepted = Telemetry.Counter.value spec_accepted_name;
    spec_rejected = Telemetry.Counter.value spec_rejected_name
  }

(* Fleet final report: merge every replica's latency histograms into the
   fleet rollup histograms (the existing mergeable-histogram mechanism)
   and compute percentiles over the merged distribution — never over a
   single replica's view. [requests] is the deduplicated fleet ledger. *)
let collect_fleet ~replicas ~(requests : Request.t list) ~tokens ~elapsed_s =
  let merged name per_replica =
    let into = Telemetry.Histogram.find_or_create name in
    Telemetry.Histogram.reset into;
    List.iter
      (fun i ->
        Telemetry.Histogram.merge_into
          (Telemetry.Histogram.find_or_create (per_replica i))
          ~into)
      replicas;
    into
  in
  let fttft = merged fleet_ttft_ms_name replica_ttft_ms_name in
  let ftpot = merged fleet_tpot_ms_name replica_tpot_ms_name in
  let base = collect ~requests ~tokens ~elapsed_s in
  { base with ttft_ms = percentiles_of fttft; tpot_ms = percentiles_of ftpot }

let summary_to_string s =
  let b = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "== serve summary ==\n";
  pr "requests: %d submitted, %d completed, %d rejected, %d cancelled, \
      %d failed, goodput %d/%d (met deadline)\n"
    s.submitted s.completed s.rejected s.cancelled s.failed s.goodput
    s.submitted;
  pr "tokens:   %d in %.2fs -> %.1f tokens/s\n" s.tokens s.elapsed_s
    s.tokens_per_s;
  pr "TTFT ms:  p50 %.2f  p95 %.2f  p99 %.2f\n" s.ttft_ms.p50 s.ttft_ms.p95
    s.ttft_ms.p99;
  pr "TPOT ms:  p50 %.2f  p95 %.2f  p99 %.2f\n" s.tpot_ms.p50 s.tpot_ms.p95
    s.tpot_ms.p99;
  if s.spec_proposed > 0 then
    pr "spec:     %d proposed, %d accepted, %d rejected (%.0f%% accept)\n"
      s.spec_proposed s.spec_accepted s.spec_rejected
      (100.0 *. float_of_int s.spec_accepted /. float_of_int s.spec_proposed);
  Buffer.contents b

let print s =
  print_string (summary_to_string s);
  flush stdout
