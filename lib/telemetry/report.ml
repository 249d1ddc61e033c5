(* End-of-run summary of everything the registry collected: per-kernel
   achieved GFLOPS with optional roofline context, JIT-cache behaviour,
   barrier-wait totals, raw counters and perf-model error, as plain
   text. *)

(* emission helpers live in Json_check (shared with Recorder/Expose);
   re-exported here for existing callers *)
let json_escape = Json_check.escape
let json_float = Json_check.float_repr

(* attainable GFLOPS at a kernel's arithmetic intensity, classic roofline *)
let roofline ~peak_gflops ~mem_bw_gbs ai =
  Float.min peak_gflops (mem_bw_gbs *. ai)

let summary ?peak_gflops ?mem_bw_gbs () =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "== telemetry report ==\n";
  (* kernels *)
  let ks = Registry.kernel_stats () in
  if ks <> [] then begin
    pr "kernels (achieved):\n";
    List.iter
      (fun (s : Registry.kernel_stat) ->
        let g = Registry.gflops s in
        let ai = Registry.arithmetic_intensity s in
        pr "  %-6s %-34s %4d run%s %9.4fs %10.2f GFLOPS" s.Registry.kind
          s.Registry.instance s.Registry.invocations
          (if s.Registry.invocations = 1 then " " else "s")
          s.Registry.seconds g;
        if ai > 0.0 then pr "  AI %.1f F/B" ai;
        (match (peak_gflops, mem_bw_gbs) with
        | Some peak, Some bw when ai > 0.0 && peak > 0.0 ->
          let roof = roofline ~peak_gflops:peak ~mem_bw_gbs:bw ai in
          pr "  (%.1f%% of %.0f GF roofline)" (100.0 *. g /. roof) roof
        | Some peak, _ when peak > 0.0 ->
          pr "  (%.1f%% of %.0f GF peak)" (100.0 *. g /. peak) peak
        | _ -> ());
        pr "\n")
      ks
  end;
  (* JIT cache *)
  let hits = Counter.value Registry.jit_hits_name in
  let misses = Counter.value Registry.jit_misses_name in
  if hits + misses > 0 then
    pr
      "jit cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, \
       %.2f ms compiling\n"
      hits misses
      (100.0 *. float_of_int hits /. float_of_int (hits + misses))
      (Counter.value Registry.jit_evictions_name)
      (float_of_int (Counter.value Registry.jit_compile_ns_name) /. 1e6);
  let wait = Counter.value Registry.barrier_wait_ns_name in
  if wait > 0 then
    pr "barrier wait: %.3f ms total across threads\n"
      (float_of_int wait /. 1e6);
  (* predicted vs measured *)
  let ps = Registry.predictions () in
  if ps <> [] then begin
    pr "perf model, predicted vs measured:\n";
    List.iter
      (fun (p : Registry.prediction) ->
        pr "  %-34s predicted %10.2f GF  measured %10.2f GF  deviation %+.1f%%\n"
          p.Registry.pname p.Registry.predicted_gflops p.Registry.measured_gflops
          (100.0 *. Registry.deviation p))
      ps;
    pr "  mean |deviation|: %.1f%% over %d candidate%s\n"
      (100.0 *. Registry.mean_abs_deviation ps)
      (List.length ps)
      (if List.length ps = 1 then "" else "s")
  end;
  (* histograms (latency distributions etc.) *)
  let hs = List.filter (fun h -> Histogram.count h > 0) (Histogram.all ()) in
  if hs <> [] then begin
    pr "histograms:\n";
    List.iter
      (fun h ->
        pr
          "  %-28s %6d obs  mean %10.3f  p50 %10.3f  p95 %10.3f  \
           p99 %10.3f  max %10.3f\n"
          (Histogram.name h) (Histogram.count h) (Histogram.mean h)
          (Histogram.quantile h 0.50)
          (Histogram.quantile h 0.95)
          (Histogram.quantile h 0.99)
          (Histogram.max_value h))
      hs
  end;
  (* remaining counters *)
  let skip =
    [
      Registry.jit_hits_name; Registry.jit_misses_name;
      Registry.jit_evictions_name; Registry.jit_compile_ns_name;
      Registry.barrier_wait_ns_name;
    ]
  in
  let rest =
    List.filter (fun (n, v) -> v <> 0 && not (List.mem n skip)) (Counter.all ())
  in
  if rest <> [] then begin
    pr "counters:\n";
    List.iter (fun (n, v) -> pr "  %-40s %d\n" n v) rest
  end;
  let gs = List.filter (fun (_, v) -> v <> 0) (Gauge.all ()) in
  if gs <> [] then begin
    pr "gauges:\n";
    List.iter (fun (n, v) -> pr "  %-40s %d\n" n v) gs
  end;
  pr "spans: %d recorded on %d thread track%s\n" (Span.count ())
    (List.length (Span.by_tid ()))
    (if List.length (Span.by_tid ()) = 1 then "" else "s");
  Buffer.contents b

let print ?peak_gflops ?mem_bw_gbs () =
  print_string (summary ?peak_gflops ?mem_bw_gbs ());
  flush stdout
