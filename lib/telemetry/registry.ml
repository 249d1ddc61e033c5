(* Global aggregation point. Everything the stack reports at runtime lands
   here: kernel instances accumulate flops/bytes/seconds so achieved GFLOPS
   is derivable, the perf model and tuner deposit predicted-vs-measured
   pairs, and enable/disable/reset fan out to the span and counter stores.
   All entry points are safe to call from any domain or systhread. *)

type kernel_stat = {
  kind : string;  (** "gemm", "conv", "mlp", "spmm" *)
  instance : string;  (** shape/dtype/spec identity, e.g. "512x512x512 f32 BCa" *)
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

let lock = Mutex.create ()
let kernels : (string * string, kernel_stat) Hashtbl.t = Hashtbl.create 16
let preds : prediction list ref = ref []

(* ---- master switch ---- *)

let enable () = Span.set_enabled true
let disable () = Span.set_enabled false
let enabled () = Span.enabled ()

let with_enabled f =
  enable ();
  Fun.protect ~finally:disable f

(* ---- kernel statistics ---- *)

let record_kernel ~kind ~instance ~flops ~bytes ~seconds =
  Mutex.lock lock;
  let s =
    match Hashtbl.find_opt kernels (kind, instance) with
    | Some s -> s
    | None ->
      let s = { kind; instance; invocations = 0; flops = 0.0; bytes = 0.0;
                seconds = 0.0 }
      in
      Hashtbl.replace kernels (kind, instance) s;
      s
  in
  s.invocations <- s.invocations + 1;
  s.flops <- s.flops +. flops;
  s.bytes <- s.bytes +. bytes;
  s.seconds <- s.seconds +. seconds;
  Mutex.unlock lock

let kernel_stats () =
  Mutex.lock lock;
  let l = Hashtbl.fold (fun _ s acc -> s :: acc) kernels [] in
  Mutex.unlock lock;
  List.sort (fun a b -> compare (a.kind, a.instance) (b.kind, b.instance)) l

let gflops s = if s.seconds > 0.0 then s.flops /. s.seconds /. 1e9 else 0.0

let arithmetic_intensity s =
  if s.bytes > 0.0 then s.flops /. s.bytes else 0.0

(* ---- predicted vs measured ---- *)

let record_prediction ~name ~predicted_gflops ~measured_gflops =
  Mutex.lock lock;
  preds := { pname = name; predicted_gflops; measured_gflops } :: !preds;
  Mutex.unlock lock

let predictions () =
  Mutex.lock lock;
  let l = List.rev !preds in
  Mutex.unlock lock;
  l

(* signed relative model error: positive = model over-predicts *)
let deviation p =
  if p.measured_gflops > 0.0 then
    (p.predicted_gflops -. p.measured_gflops) /. p.measured_gflops
  else 0.0

let mean_abs_deviation ps =
  match ps with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun a p -> a +. Float.abs (deviation p)) 0.0 ps
    /. float_of_int (List.length ps)

(* ---- JIT-cache counter names (owned by Threaded_loop, read by Report) ---- *)

let jit_hits_name = "parlooper.jit.hits"
let jit_misses_name = "parlooper.jit.misses"
let jit_evictions_name = "parlooper.jit.evictions"
let jit_compile_ns_name = "parlooper.jit.compile_ns"
let barrier_wait_ns_name = "parlooper.barrier_wait_ns"

(* ---- persistent worker-pool counter names (owned by Team) ---- *)

let pool_dispatches_name = "parlooper.pool.dispatches"
let pool_reuse_name = "parlooper.pool.worker_reuse"
let pool_spin_name = "parlooper.pool.spin_wakeups"
let pool_park_name = "parlooper.pool.park_wakeups"
let pool_workers_name = "parlooper.pool.workers_spawned"
let pool_dispatch_ns_name = "parlooper.pool.dispatch_ns"

(* ---- TPP scratch-allocation counter name (perfbench reads it) ---- *)

let arena_misses_name = "tpp.arena.misses"

(* ---- fault-injection / robustness counter names ----
   owned by lib/fault (injected), Team (trips/quarantined), Tpp_check
   (numeric errors) and Serve.Scheduler (retries/shed) *)

let fault_injected_name = "fault.injected"
let fault_retries_name = "fault.retries"
let fault_shed_name = "fault.shed"
let watchdog_trips_name = "watchdog.trips"
let pool_quarantined_name = "pool.quarantined"
let numeric_errors_name = "tpp.numeric_errors"

(* ---- tuner counter names ----
   owned by lib/tuner (Search bumps the search counters, Spec_cache the
   cache counters); declared here so Expose consumers and the bench have
   one canonical spelling *)

let tuner_search_generated_name = "tuner.search.generated"
let tuner_search_pruned_name = "tuner.search.pruned"
let tuner_search_scored_name = "tuner.search.scored"
let tuner_search_measured_name = "tuner.search.measured"
let tuner_cache_hits_name = "tuner.cache.hits"
let tuner_cache_misses_name = "tuner.cache.misses"
let tuner_cache_swaps_name = "tuner.cache.swaps"
let tuner_cache_rejected_name = "tuner.cache.rejected"
let tuner_cache_tunes_name = "tuner.cache.tunes"

(* ---- telemetry self-accounting ---- *)

let spans_dropped_name = Span.dropped_name

(* ---- lifecycle ---- *)

let reset () =
  Mutex.lock lock;
  Hashtbl.reset kernels;
  preds := [];
  Mutex.unlock lock;
  Span.reset ();
  Counter.reset_all ();
  Gauge.reset_all ();
  Histogram.reset_all ();
  Recorder.reset ()
