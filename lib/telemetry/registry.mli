(** Global aggregation of runtime telemetry: the master enable switch,
    per-kernel-instance flops/bytes/time accumulation (achieved GFLOPS),
    and perf-model predicted-vs-measured records. All entry points are
    thread- and domain-safe. *)

type kernel_stat = {
  kind : string;  (** "gemm", "conv", "mlp", "spmm" *)
  instance : string;  (** shape/dtype/spec identity *)
  mutable invocations : int;
  mutable flops : float;
  mutable bytes : float;
  mutable seconds : float;
}

type prediction = {
  pname : string;
  predicted_gflops : float;
  measured_gflops : float;
}

(** Enable/disable span recording and kernel-stat collection. Counters
    (e.g. the JIT cache's) are always live — they are cheap atomics. *)
val enable : unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** [with_enabled f] runs [f] with telemetry on, disabling on the way out. *)
val with_enabled : (unit -> 'a) -> 'a

(** Accumulate one kernel run into the (kind, instance) bucket. *)
val record_kernel :
  kind:string ->
  instance:string ->
  flops:float ->
  bytes:float ->
  seconds:float ->
  unit

val kernel_stats : unit -> kernel_stat list
val gflops : kernel_stat -> float
val arithmetic_intensity : kernel_stat -> float

val record_prediction :
  name:string -> predicted_gflops:float -> measured_gflops:float -> unit

val predictions : unit -> prediction list

(** Signed relative model error; positive = model over-predicts. *)
val deviation : prediction -> float

val mean_abs_deviation : prediction list -> float

(** Well-known counter names written by the PARLOOPER runtime. *)
val jit_hits_name : string

val jit_misses_name : string
val jit_evictions_name : string
val jit_compile_ns_name : string
val barrier_wait_ns_name : string

(** Counter names written by the persistent worker pool (Team): jobs
    dispatched to pool workers, jobs run by an already-warm worker
    (reuse), wake-ups satisfied in the spin phase vs after parking, and
    total workers ever spawned. [pool_dispatch_ns_name] is a histogram of
    per-team dispatch latency (run start to last worker picking up its
    job), fed only while the registry is enabled. *)
val pool_dispatches_name : string

val pool_reuse_name : string
val pool_spin_name : string
val pool_park_name : string
val pool_workers_name : string
val pool_dispatch_ns_name : string

(** Counter name for scratch buffers a TPP kernel allocates per call.
    None does: BRGEMM and SpMM keep their accumulators in the native
    microkernel, so it reads 0. perfbench reports it as
    [tpp.arena_misses]. *)
val arena_misses_name : string

(** Counter names for the fault-injection / robustness layer: faults fired
    by lib/fault, scheduler retries and load-shedding events, watchdog
    warnings, pool workers quarantined after a death or stall, and NaN/Inf
    detections by the TPP numeric guard. *)
val fault_injected_name : string

val fault_retries_name : string
val fault_shed_name : string
val watchdog_trips_name : string
val pool_quarantined_name : string
val numeric_errors_name : string

(** Counter names for the model-guided tuner: candidates generated, pruned
    (illegal / duplicate / over budget) and model-scored by the search, and
    candidates promoted to real measurement. *)
val tuner_search_generated_name : string

val tuner_search_pruned_name : string
val tuner_search_scored_name : string
val tuner_search_measured_name : string

(** Counter names for the online per-shape spec cache in the serve path:
    lookups served from a published spec, first-arrival misses (default
    spec served, shape queued for background tuning), hot-swaps published
    after the bit-identity gate passed, candidate specs rejected by that
    gate, and background tunes completed. *)
val tuner_cache_hits_name : string

val tuner_cache_misses_name : string
val tuner_cache_swaps_name : string
val tuner_cache_rejected_name : string
val tuner_cache_tunes_name : string

(** Counter of spans discarded once the bounded span store is full
    (= {!Span.dropped_name}). *)
val spans_dropped_name : string

(** Clear kernel stats, predictions, spans, recorder rings and zero all
    counters, gauges and histograms. *)
val reset : unit -> unit
