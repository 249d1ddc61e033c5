(* Tests for lib/telemetry: monotonic clock, spans, atomic counters across
   domains, registry aggregation, report/Chrome-trace JSON well-formedness. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let reset_on () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.enable ()

let off () = Telemetry.Registry.disable ()

(* ---- clock ---- *)

let test_clock_monotonic () =
  let a = Telemetry.Clock.now_ns () in
  let b = Telemetry.Clock.now_ns () in
  ignore (Sys.opaque_identity (Array.init 1000 Fun.id));
  let c = Telemetry.Clock.now_ns () in
  checkb "b >= a" true (Int64.compare b a >= 0);
  checkb "c >= b" true (Int64.compare c b >= 0);
  let x, dt = Telemetry.Clock.time (fun () -> 42) in
  checki "time result" 42 x;
  checkb "time non-negative" true (dt >= 0.0)

(* ---- spans ---- *)

let test_span_disabled_records_nothing () =
  Telemetry.Registry.reset ();
  off ();
  Telemetry.Span.record ~name:"ghost" ~start_ns:0L ~dur_ns:1L ();
  let r = Telemetry.Span.with_span "ghost2" (fun () -> 7) in
  checki "with_span passthrough" 7 r;
  checki "nothing recorded while disabled" 0 (Telemetry.Span.count ())

let test_span_nesting () =
  reset_on ();
  let r =
    Telemetry.Span.with_span "outer" (fun () ->
        Telemetry.Span.with_span "inner" (fun () -> 3) + 1)
  in
  off ();
  checki "result" 4 r;
  match Telemetry.Span.all () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first by start" "outer" outer.Telemetry.Span.name;
    Alcotest.(check string) "inner second" "inner" inner.Telemetry.Span.name;
    let open Int64 in
    let o_end = add outer.Telemetry.Span.start_ns outer.Telemetry.Span.dur_ns in
    let i_end = add inner.Telemetry.Span.start_ns inner.Telemetry.Span.dur_ns in
    checkb "inner starts after outer" true
      (compare inner.Telemetry.Span.start_ns outer.Telemetry.Span.start_ns >= 0);
    checkb "inner contained in outer" true (compare i_end o_end <= 0)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_exception_still_recorded () =
  reset_on ();
  (try Telemetry.Span.with_span "boom" (fun () -> failwith "x") with
  | Failure _ -> ());
  off ();
  checki "span recorded despite exception" 1 (Telemetry.Span.count ())

(* ---- counters across domains ---- *)

let test_counter_cross_domain () =
  Telemetry.Counter.reset_all ();
  let c = Telemetry.Counter.find_or_create "test.cross_domain" in
  let worker () =
    let mine = Telemetry.Counter.find_or_create "test.cross_domain" in
    for _ = 1 to 1000 do
      Telemetry.Counter.incr mine
    done
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  worker ();
  Domain.join d1;
  Domain.join d2;
  checki "3 x 1000 increments aggregated" 3000 (Telemetry.Counter.get c);
  checki "value by name" 3000 (Telemetry.Counter.value "test.cross_domain");
  Telemetry.Counter.reset_all ();
  checki "reset zeroes but keeps identity" 0 (Telemetry.Counter.get c)

(* ---- registry ---- *)

let test_registry_kernel_stats () =
  reset_on ();
  Telemetry.Registry.record_kernel ~kind:"gemm" ~instance:"t" ~flops:2e9
    ~bytes:1e9 ~seconds:0.5;
  Telemetry.Registry.record_kernel ~kind:"gemm" ~instance:"t" ~flops:2e9
    ~bytes:1e9 ~seconds:0.5;
  off ();
  match Telemetry.Registry.kernel_stats () with
  | [ s ] ->
    checki "invocations aggregated" 2 s.Telemetry.Registry.invocations;
    Alcotest.(check (float 1e-6)) "gflops" 4.0 (Telemetry.Registry.gflops s);
    Alcotest.(check (float 1e-6)) "ai" 2.0
      (Telemetry.Registry.arithmetic_intensity s)
  | l -> Alcotest.failf "expected 1 stat, got %d" (List.length l)

let test_registry_predictions () =
  reset_on ();
  Telemetry.Registry.record_prediction ~name:"p" ~predicted_gflops:120.0
    ~measured_gflops:100.0;
  off ();
  match Telemetry.Registry.predictions () with
  | [ p ] ->
    Alcotest.(check (float 1e-9)) "signed deviation" 0.2
      (Telemetry.Registry.deviation p);
    Alcotest.(check (float 1e-9)) "mean abs deviation" 0.2
      (Telemetry.Registry.mean_abs_deviation [ p ])
  | l -> Alcotest.failf "expected 1 prediction, got %d" (List.length l)

let test_registry_reset () =
  reset_on ();
  Telemetry.Span.record ~name:"s" ~start_ns:0L ~dur_ns:1L ();
  Telemetry.Registry.record_kernel ~kind:"k" ~instance:"i" ~flops:1.0
    ~bytes:1.0 ~seconds:1.0;
  Telemetry.Registry.record_prediction ~name:"p" ~predicted_gflops:1.0
    ~measured_gflops:1.0;
  Telemetry.Counter.incr (Telemetry.Counter.find_or_create "test.reset");
  Telemetry.Registry.reset ();
  off ();
  checki "spans cleared" 0 (Telemetry.Span.count ());
  checki "kernels cleared" 0
    (List.length (Telemetry.Registry.kernel_stats ()));
  checki "predictions cleared" 0
    (List.length (Telemetry.Registry.predictions ()));
  checki "counters zeroed" 0 (Telemetry.Counter.value "test.reset")

(* ---- histograms ---- *)

let test_histogram_basic () =
  Telemetry.Histogram.reset_all ();
  let h = Telemetry.Histogram.find_or_create "test.hist.basic" in
  checkb "same name, same histogram" true
    (h == Telemetry.Histogram.find_or_create "test.hist.basic");
  for i = 1 to 1000 do
    Telemetry.Histogram.observe h (float_of_int i)
  done;
  checki "count" 1000 (Telemetry.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum" 500500.0 (Telemetry.Histogram.sum h);
  Alcotest.(check (float 1e-6)) "min exact" 1.0
    (Telemetry.Histogram.min_value h);
  Alcotest.(check (float 1e-6)) "max exact" 1000.0
    (Telemetry.Histogram.max_value h);
  (* log buckets: quantiles within ~9% relative error *)
  let q50 = Telemetry.Histogram.quantile h 0.5 in
  checkb "p50 within bucket resolution"
    true
    (Float.abs (q50 -. 500.0) /. 500.0 < 0.10);
  let q0 = Telemetry.Histogram.quantile h 0.0 in
  let q100 = Telemetry.Histogram.quantile h 1.0 in
  checkb "q0 clamped to observed min" true (q0 >= 1.0);
  checkb "q1 clamped to observed max" true (q100 <= 1000.0);
  checkb "quantiles monotone" true (q0 <= q50 && q50 <= q100)

let test_histogram_empty_and_reset () =
  Telemetry.Histogram.reset_all ();
  let h = Telemetry.Histogram.find_or_create "test.hist.empty" in
  checki "empty count" 0 (Telemetry.Histogram.count h);
  checkb "empty mean is nan" true (Float.is_nan (Telemetry.Histogram.mean h));
  checkb "empty quantile is nan" true
    (Float.is_nan (Telemetry.Histogram.quantile h 0.5));
  Telemetry.Histogram.observe h 3.0;
  Telemetry.Histogram.reset h;
  checki "reset zeroes but keeps identity" 0 (Telemetry.Histogram.count h);
  checkb "registry reset clears histograms" true
    (Telemetry.Histogram.observe h 1.0;
     Telemetry.Registry.reset ();
     Telemetry.Histogram.count h = 0)

let test_histogram_merge_across_domains () =
  Telemetry.Histogram.reset_all ();
  let into = Telemetry.Histogram.find_or_create "test.hist.merged" in
  (* per-domain shards observed concurrently, then merged *)
  let shard i =
    let h =
      Telemetry.Histogram.find_or_create
        (Printf.sprintf "test.hist.shard%d" i)
    in
    for v = 1 to 500 do
      Telemetry.Histogram.observe h (float_of_int v)
    done;
    h
  in
  let d1 = Domain.spawn (fun () -> shard 1) in
  let d2 = Domain.spawn (fun () -> shard 2) in
  let h1 = Domain.join d1 and h2 = Domain.join d2 in
  Telemetry.Histogram.merge_into h1 ~into;
  Telemetry.Histogram.merge_into h2 ~into;
  checki "merged count" 1000 (Telemetry.Histogram.count into);
  Alcotest.(check (float 1e-6)) "merged sum" 250500.0
    (Telemetry.Histogram.sum into);
  Alcotest.(check (float 1e-6)) "merged max" 500.0
    (Telemetry.Histogram.max_value into);
  let q50 = Telemetry.Histogram.quantile into 0.5 in
  checkb "merged p50 sane" true (Float.abs (q50 -. 250.0) /. 250.0 < 0.10)

(* ---- JSON well-formedness (validator lives in Telemetry.Json_check) ---- *)

let parse_json s = Telemetry.Json_check.validate s

let test_json_check_rejects_malformed () =
  let bad =
    [ "{"; "{\"a\":1,}"; "[1 2]"; "\"unterminated"; "{\"a\":01x}"; "{} {}" ]
  in
  List.iter
    (fun s ->
      match Telemetry.Json_check.check s with
      | Ok () -> Alcotest.failf "accepted malformed JSON: %s" s
      | Error _ -> ())
    bad;
  List.iter
    (fun s ->
      match Telemetry.Json_check.check s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "rejected valid JSON %s: %s" s m)
    [ "{}"; "[]"; "{\"a\":[1,2.5,-3e4,true,false,null,\"s\\n\"]}" ]

(* the reader returns the document it validated: nesting, member order,
   every literal kind, and decoded string escapes (a \u surrogate pair is
   one code point) *)
let test_json_check_parses_value () =
  let module J = Telemetry.Json_check in
  let doc =
    "{\"benches\":[{\"name\":\"a\\\"b\\\\c\\n\\u00e9\\ud83d\\ude00\",\
     \"metrics\":{\"x\":-3e2,\"y\":0.5}},[],{}],\"ok\":true,\
     \"no\":false,\"nil\":null}"
  in
  let want =
    J.Obj
      [ ( "benches",
          J.Arr
            [ J.Obj
                [ ("name", J.Str "a\"b\\c\n\xc3\xa9\xf0\x9f\x98\x80");
                  ("metrics", J.Obj [ ("x", J.Num (-300.0)); ("y", J.Num 0.5) ])
                ];
              J.Arr [];
              J.Obj [] ] );
        ("ok", J.Bool true);
        ("no", J.Bool false);
        ("nil", J.Null) ]
  in
  checkb "parsed value" true (J.parse doc = want);
  checkb "whitespace is insignificant" true
    (J.parse " [ 1 ,\n\t\"s\" ] " = J.Arr [ J.Num 1.0; J.Str "s" ])

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_chrome_trace_json () =
  reset_on ();
  Telemetry.Span.record ~cat:"loop" ~tid:0 ~name:"sp\"an\\1"
    ~args:[ ("nthreads", 2.0) ] ~start_ns:1000L ~dur_ns:5000L ();
  Telemetry.Span.record ~cat:"loop" ~tid:1 ~name:"span2" ~start_ns:2000L
    ~dur_ns:3000L ();
  Telemetry.Span.record ~name:"main-span" ~start_ns:500L ~dur_ns:9000L ();
  off ();
  let s = Telemetry.Chrome_trace.to_string () in
  (try parse_json s with
  | Telemetry.Json_check.Bad_json m -> Alcotest.failf "invalid JSON: %s" m);
  checkb "has traceEvents" true (contains ~needle:"\"traceEvents\"" s);
  checkb "has complete events" true (contains ~needle:"\"ph\":\"X\"" s);
  checkb "names worker thread" true (contains ~needle:"worker-1" s);
  checkb "names main thread" true (contains ~needle:"\"main\"" s);
  checkb "escapes span names" true (contains ~needle:"sp\\\"an\\\\1" s)

let test_report_json () =
  reset_on ();
  Telemetry.Registry.record_kernel ~kind:"gemm" ~instance:"256^3 f32 BCa"
    ~flops:33.5e6 ~bytes:1.05e6 ~seconds:1.0e-3;
  Telemetry.Registry.record_prediction ~name:"gemm 256" ~predicted_gflops:50.0
    ~measured_gflops:40.0;
  Telemetry.Histogram.observe
    (Telemetry.Histogram.find_or_create "test.report.lat_ms")
    1.5;
  off ();
  let j = Telemetry.Report.to_json ~peak_gflops:100.0 ~mem_bw_gbs:50.0 () in
  (try parse_json j with
  | Telemetry.Json_check.Bad_json m -> Alcotest.failf "invalid JSON: %s" m);
  checkb "kernels in json" true (contains ~needle:"\"kernels\"" j);
  checkb "predictions in json" true (contains ~needle:"\"predictions\"" j);
  checkb "histograms in json" true (contains ~needle:"\"histograms\"" j);
  checkb "histogram named in json" true
    (contains ~needle:"test.report.lat_ms" j);
  let txt = Telemetry.Report.summary ~peak_gflops:100.0 ~mem_bw_gbs:50.0 () in
  checkb "summary names kernel" true (contains ~needle:"256^3 f32 BCa" txt)

let test_roofline () =
  Alcotest.(check (float 1e-9))
    "bandwidth bound" 5.0
    (Telemetry.Report.roofline ~peak_gflops:100.0 ~mem_bw_gbs:50.0 0.1);
  Alcotest.(check (float 1e-9))
    "compute bound" 100.0
    (Telemetry.Report.roofline ~peak_gflops:100.0 ~mem_bw_gbs:50.0 1000.0)

(* ---- gauges ---- *)

let test_gauge_basic () =
  Telemetry.Gauge.reset_all ();
  let g = Telemetry.Gauge.find_or_create "test.gauge" in
  checkb "same name, same gauge" true
    (g == Telemetry.Gauge.find_or_create "test.gauge");
  Alcotest.(check string) "name" "test.gauge" (Telemetry.Gauge.name g);
  Telemetry.Gauge.set g 5;
  checki "set" 5 (Telemetry.Gauge.get g);
  Telemetry.Gauge.add g 3;
  Telemetry.Gauge.incr g;
  Telemetry.Gauge.decr g;
  checki "add/incr/decr" 8 (Telemetry.Gauge.get g);
  checki "value by name" 8 (Telemetry.Gauge.value "test.gauge");
  Telemetry.Gauge.set g (-2);
  checki "gauges can go negative" (-2) (Telemetry.Gauge.get g);
  checkb "listed in all" true
    (List.mem_assoc "test.gauge" (Telemetry.Gauge.all ()));
  Telemetry.Gauge.reset_all ();
  checki "reset zeroes but keeps identity" 0 (Telemetry.Gauge.get g)

(* ---- span cap ---- *)

let test_span_cap () =
  reset_on ();
  let old = Telemetry.Span.limit () in
  Telemetry.Span.set_limit 4;
  for i = 1 to 10 do
    Telemetry.Span.record
      ~name:(string_of_int i)
      ~start_ns:(Int64.of_int i) ~dur_ns:1L ()
  done;
  off ();
  Telemetry.Span.set_limit old;
  checki "kept at most the cap" 4 (Telemetry.Span.count ());
  checki "overflow counted" 6
    (Telemetry.Counter.value Telemetry.Registry.spans_dropped_name)

(* ---- live metrics plane (Expose) ---- *)

let test_expose_jsonl () =
  reset_on ();
  let c = Telemetry.Counter.find_or_create "test.expose.c" in
  Telemetry.Counter.incr c;
  Telemetry.Gauge.set (Telemetry.Gauge.find_or_create "test.expose.g") 7;
  let s1 = Telemetry.Expose.take () in
  Telemetry.Counter.add c 4;
  let s2 = Telemetry.Expose.take () in
  off ();
  let line1 = Telemetry.Expose.jsonl s1 in
  let line2 = Telemetry.Expose.jsonl ~prev:s1 s2 in
  (try parse_json line1 with
  | Telemetry.Json_check.Bad_json m -> Alcotest.failf "invalid JSONL: %s" m);
  (try parse_json line2 with
  | Telemetry.Json_check.Bad_json m ->
    Alcotest.failf "invalid JSONL with prev: %s" m);
  checkb "no deltas without prev" false (contains ~needle:"\"deltas\"" line1);
  checkb "deltas present with prev" true (contains ~needle:"\"deltas\"" line2);
  checkb "rates present with prev" true (contains ~needle:"\"rates\"" line2);
  checkb "gauge in snapshot" true (contains ~needle:"test.expose.g" line1);
  match List.assoc_opt "test.expose.c" (Telemetry.Expose.deltas ~prev:s1 s2)
  with
  | Some d -> checki "counter delta" 4 d
  | None -> Alcotest.fail "counter missing from deltas"

let test_expose_prometheus () =
  reset_on ();
  Telemetry.Counter.incr (Telemetry.Counter.find_or_create "test.prom.count");
  Telemetry.Gauge.set (Telemetry.Gauge.find_or_create "test.prom.depth") 3;
  off ();
  let s = Telemetry.Expose.prometheus () in
  checkb "TYPE counter line" true
    (contains ~needle:"# TYPE test_prom_count counter" s);
  checkb "TYPE gauge line" true
    (contains ~needle:"# TYPE test_prom_depth gauge" s);
  checkb "gauge sample" true (contains ~needle:"test_prom_depth 3" s)

(* ---- flight recorder ---- *)

let test_recorder_emit_decode () =
  Telemetry.Recorder.reset ();
  Telemetry.Recorder.set_enabled true;
  let lbl = Telemetry.Recorder.intern "test.recorder" in
  Telemetry.Recorder.emit Telemetry.Recorder.Sched_admit ~label:lbl ~a:7 ~b:2;
  Telemetry.Recorder.emit Telemetry.Recorder.Mark
    ~label:Telemetry.Recorder.no_label ~a:0 ~b:0;
  (match Telemetry.Recorder.events () with
  | [ e1; e2 ] ->
    checkb "kind decodes" true
      (e1.Telemetry.Recorder.ekind = Telemetry.Recorder.Sched_admit);
    Alcotest.(check string)
      "label decodes" "test.recorder" e1.Telemetry.Recorder.label;
    checki "a" 7 e1.Telemetry.Recorder.a;
    checki "b" 2 e1.Telemetry.Recorder.b;
    checkb "time ordered" true
      (e2.Telemetry.Recorder.t_ns >= e1.Telemetry.Recorder.t_ns);
    checkb "seq ordered" true
      (e2.Telemetry.Recorder.seq > e1.Telemetry.Recorder.seq)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  checki "one recording thread" 1 (List.length (Telemetry.Recorder.tids ()));
  Telemetry.Recorder.reset ()

let test_recorder_kill_switch () =
  Telemetry.Recorder.reset ();
  Telemetry.Recorder.set_enabled false;
  Telemetry.Recorder.emit Telemetry.Recorder.Mark
    ~label:Telemetry.Recorder.no_label ~a:0 ~b:0;
  checki "disabled emits nothing" 0
    (List.length (Telemetry.Recorder.events ()));
  Telemetry.Recorder.set_enabled true

let test_recorder_wrap () =
  Telemetry.Recorder.reset ();
  Telemetry.Recorder.set_enabled true;
  Telemetry.Recorder.set_capacity 16;
  let lbl = Telemetry.Recorder.intern "test.wrap" in
  (* a fresh thread gets a fresh ring at the new capacity *)
  let t =
    Thread.create
      (fun () ->
        for i = 1 to 100 do
          Telemetry.Recorder.emit Telemetry.Recorder.Mark ~label:lbl ~a:i ~b:0
        done)
      ()
  in
  Thread.join t;
  Telemetry.Recorder.set_capacity 4096;
  let evs = Telemetry.Recorder.events () in
  checki "ring kept exactly capacity events" 16 (List.length evs);
  let min_a =
    List.fold_left (fun m e -> min m e.Telemetry.Recorder.a) max_int evs
  in
  checki "survivors are the newest" 85 min_a;
  Telemetry.Recorder.reset ()

let test_recorder_trace_json () =
  Telemetry.Recorder.reset ();
  Telemetry.Recorder.set_enabled true;
  (* labels exercise JSON escaping: quotes, backslash, and non-ASCII
     (UTF-8 multibyte) kernel names must all survive *)
  let k = Telemetry.Recorder.intern "gemm \"64\xc2\xb3\" bf16\\f32" in
  let f = Telemetry.Recorder.intern "team.worker.body" in
  Telemetry.Recorder.emit Telemetry.Recorder.Kernel_begin ~label:k ~a:4 ~b:0;
  Telemetry.Recorder.emit Telemetry.Recorder.Fault_fired ~label:f ~a:47 ~b:0;
  Telemetry.Recorder.emit Telemetry.Recorder.Kernel_end ~label:k ~a:4 ~b:0;
  let evs = Telemetry.Recorder.events () in
  let s = Telemetry.Recorder.trace_of_events ~reason:"test.trace" evs in
  (try parse_json s with
  | Telemetry.Json_check.Bad_json m ->
    Alcotest.failf "invalid trace JSON: %s" m);
  checkb "fault category present" true (contains ~needle:"\"cat\":\"fault\"" s);
  checkb "kernel begin" true (contains ~needle:"\"ph\":\"B\"" s);
  checkb "kernel end" true (contains ~needle:"\"ph\":\"E\"" s);
  checkb "non-ASCII label survives" true (contains ~needle:"64\xc2\xb3" s);
  let txt = Telemetry.Recorder.text_of_events ~reason:"test.trace" evs in
  checkb "text timeline carries reason" true
    (contains ~needle:"test.trace" txt);
  Telemetry.Recorder.reset ()

let test_recorder_post_mortem () =
  Telemetry.Recorder.reset ();
  Telemetry.Recorder.set_enabled true;
  let dir = Filename.temp_file "parlooper-flight" ".d" in
  Sys.remove dir;
  let old = Telemetry.Recorder.dump_dir () in
  Telemetry.Recorder.set_dump_dir (Some dir);
  Telemetry.Recorder.emit Telemetry.Recorder.Mark
    ~label:(Telemetry.Recorder.intern "pm")
    ~a:1 ~b:0;
  (match Telemetry.Recorder.post_mortem ~reason:"test.pm" with
  | None -> Alcotest.fail "no dump produced"
  | Some prefix ->
    let trace = prefix ^ ".trace.json" in
    checkb "trace file exists" true (Sys.file_exists trace);
    checkb "text file exists" true (Sys.file_exists (prefix ^ ".txt"));
    let ic = open_in_bin trace in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (try parse_json s with
    | Telemetry.Json_check.Bad_json m ->
      Alcotest.failf "dumped trace invalid: %s" m);
    checkb "reason recorded in dump" true (contains ~needle:"test.pm" s);
    checki "dump counted" 1 (Telemetry.Recorder.dumps_written ()));
  Telemetry.Recorder.set_dump_dir old;
  Telemetry.Recorder.reset ()

(* The always-on claim: after the calling thread's ring exists, emit must
   not allocate — same Gc-delta pattern as the BRGEMM hot-path test. *)
let test_recorder_emit_no_alloc () =
  Telemetry.Recorder.reset ();
  Telemetry.Recorder.set_enabled true;
  let lbl = Telemetry.Recorder.intern "test.noalloc" in
  for i = 1 to 50 do
    Telemetry.Recorder.emit Telemetry.Recorder.Mark ~label:lbl ~a:i ~b:0
  done;
  let before = Gc.minor_words () in
  for i = 1 to 200 do
    Telemetry.Recorder.emit Telemetry.Recorder.Mark ~label:lbl ~a:i ~b:0
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 64.0 then
    Alcotest.failf "emit allocated %.0f minor words over 200 events" delta;
  Telemetry.Recorder.reset ()

(* ---- causal request tracing (Trace) ---- *)

let trace_fresh () =
  Telemetry.Recorder.reset ();
  Telemetry.Recorder.set_enabled true;
  Telemetry.Trace.reset ();
  (* baseline off: retention below is explicit, never a lucky draw *)
  Telemetry.Trace.set_baseline 0

let trace_done () =
  Telemetry.Trace.set_baseline 16;
  Telemetry.Trace.reset ();
  Telemetry.Recorder.reset ()

let temit k id b =
  Telemetry.Recorder.emit k ~label:Telemetry.Trace.solo_label ~a:id ~b

let test_trace_check () =
  trace_fresh ();
  let lbl = Telemetry.Trace.solo_label in
  (* complete lifecycle: queued -> prefill -> decode -> end *)
  temit Telemetry.Recorder.Trace_queued 1 0;
  temit Telemetry.Recorder.Trace_prefill 1 8;
  temit Telemetry.Recorder.Trace_decode 1 2;
  Telemetry.Trace.terminal ~id:1 ~label:lbl ~state:3 ();
  (match Telemetry.Trace.check 1 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "complete timeline rejected: %s" m);
  checkb "healthy unsampled trace not retained" false
    (Telemetry.Trace.is_retained 1);
  (* negative: no queued first *)
  temit Telemetry.Recorder.Trace_prefill 2 4;
  Telemetry.Trace.terminal ~id:2 ~label:lbl ~state:3 ();
  checkb "missing trace_queued rejected" true
    (Result.is_error (Telemetry.Trace.check 2));
  (* negative: decode before prefill *)
  temit Telemetry.Recorder.Trace_queued 3 0;
  temit Telemetry.Recorder.Trace_decode 3 1;
  Telemetry.Trace.terminal ~id:3 ~label:lbl ~state:3 ();
  checkb "decode before prefill rejected" true
    (Result.is_error (Telemetry.Trace.check 3));
  (* negative: no terminal span *)
  temit Telemetry.Recorder.Trace_queued 4 0;
  checkb "missing trace_end rejected" true
    (Result.is_error (Telemetry.Trace.check 4));
  (* negative: finished while detached (KV copy vanished mid-migration) *)
  temit Telemetry.Recorder.Trace_queued 5 0;
  temit Telemetry.Recorder.Trace_prefill 5 2;
  temit Telemetry.Recorder.Trace_detach 5 3;
  Telemetry.Trace.terminal ~id:5 ~label:lbl ~state:3 ();
  checkb "finished with unmatched detach rejected" true
    (Result.is_error (Telemetry.Trace.check 5));
  (* a full migration join is well-nested *)
  temit Telemetry.Recorder.Trace_queued 6 0;
  temit Telemetry.Recorder.Trace_prefill 6 2;
  temit Telemetry.Recorder.Trace_detach 6 3;
  temit Telemetry.Recorder.Trace_import 6 3;
  temit Telemetry.Recorder.Trace_resume 6 1;
  temit Telemetry.Recorder.Trace_decode 6 1;
  Telemetry.Trace.terminal ~id:6 ~label:lbl ~state:3 ~reason:"migrated" ();
  (match Telemetry.Trace.check 6 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "migration join rejected: %s" m);
  Alcotest.(check (option string))
    "migration retained" (Some "migrated")
    (Telemetry.Trace.retention_reason 6);
  trace_done ()

let test_trace_retention () =
  trace_fresh ();
  let lbl = Telemetry.Trace.solo_label in
  (* an explicit terminal reason always retains *)
  Telemetry.Trace.terminal ~id:10 ~label:lbl ~state:5
    ~reason:"deadline_cancelled" ();
  checkb "breacher retained" true (Telemetry.Trace.is_retained 10);
  (* first reason wins: the mid-flight fault beats the terminal label *)
  Telemetry.Trace.retain ~id:11 ~reason:"fault_retry";
  Telemetry.Trace.terminal ~id:11 ~label:lbl ~state:3
    ~reason:"deadline_breach" ();
  Alcotest.(check (option string))
    "first reason wins" (Some "fault_retry")
    (Telemetry.Trace.retention_reason 11);
  (* baseline 1-in-1 retains every healthy id; the draw is seeded *)
  Telemetry.Trace.set_baseline 1;
  Telemetry.Trace.terminal ~id:12 ~label:lbl ~state:3 ();
  Alcotest.(check (option string))
    "baseline draw retained" (Some "baseline")
    (Telemetry.Trace.retention_reason 12);
  checki "retained count" 3 (List.length (Telemetry.Trace.retained ()));
  trace_done ()

let test_trace_exemplars () =
  trace_fresh ();
  Telemetry.Trace.retain ~id:7 ~reason:"ttft_breach";
  Telemetry.Trace.exemplar ~metric:Telemetry.Trace.metric_ttft ~value_ms:12.0
    ~id:7;
  Telemetry.Trace.exemplar ~metric:Telemetry.Trace.metric_ttft ~value_ms:100.0
    ~id:9;
  (* id 9 observed a worse value but was never retained: the worst
     *resolvable* exemplar is id 7 *)
  (match Telemetry.Trace.worst ~metric:Telemetry.Trace.metric_ttft with
  | Some (7, v) -> checkb "worst value" true (Float.abs (v -. 12.0) < 1e-9)
  | Some (id, _) -> Alcotest.failf "worst resolved unretained trace %d" id
  | None -> Alcotest.fail "no worst exemplar");
  Telemetry.Trace.retain ~id:9 ~reason:"shed";
  (match Telemetry.Trace.worst ~metric:Telemetry.Trace.metric_ttft with
  | Some (9, _) -> ()
  | _ -> Alcotest.fail "worst did not move to the newly retained trace");
  trace_done ()

let test_trace_chrome_lanes () =
  trace_fresh ();
  (* one request crossing two replicas: each lane becomes its own Chrome
     pid so the migration reads as a cross-process arrow *)
  let l0 = Telemetry.Trace.replica_label 0
  and l1 = Telemetry.Trace.replica_label 1 in
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_queued ~label:l0 ~a:21 ~b:0;
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_prefill ~label:l0 ~a:21
    ~b:4;
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_detach ~label:l0 ~a:21 ~b:2;
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_import ~label:l1 ~a:21 ~b:2;
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_resume ~label:l1 ~a:21 ~b:1;
  Telemetry.Trace.terminal ~id:21 ~label:l1 ~state:3 ~reason:"migrated" ();
  let s = Telemetry.Trace.chrome_of_timeline 21 in
  (try parse_json s with
  | Telemetry.Json_check.Bad_json m ->
    Alcotest.failf "invalid chrome timeline: %s" m);
  checkb "replica 0 lane" true (contains ~needle:"\"pid\":2" s);
  checkb "replica 1 lane" true (contains ~needle:"\"pid\":3" s);
  trace_done ()

let test_trace_dump () =
  trace_fresh ();
  let lbl = Telemetry.Trace.solo_label in
  temit Telemetry.Recorder.Trace_queued 31 0;
  temit Telemetry.Recorder.Trace_prefill 31 4;
  temit Telemetry.Recorder.Trace_decode 31 1;
  Telemetry.Trace.terminal ~id:31 ~label:lbl ~state:3 ~reason:"deadline_breach"
    ();
  Telemetry.Trace.exemplar ~metric:Telemetry.Trace.metric_ttft ~value_ms:9.5
    ~id:31;
  let dir = Filename.temp_file "parlooper-traces" ".d" in
  Sys.remove dir;
  checki "one trace dumped" 1 (Telemetry.Trace.dump ~dir);
  checkb "text timeline on disk" true
    (Sys.file_exists (Filename.concat dir "trace-31.txt"));
  let slurp p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let tr = slurp (Filename.concat dir "trace-31.trace.json") in
  (try parse_json tr with
  | Telemetry.Json_check.Bad_json m ->
    Alcotest.failf "dumped chrome timeline invalid: %s" m);
  checkb "index row" true
    (contains ~needle:"31 deadline_breach" (slurp (Filename.concat dir "index.txt")));
  checkb "exemplar row links the retained id" true
    (contains ~needle:"ttft 9.5 31"
       (slurp (Filename.concat dir "exemplars.txt")));
  trace_done ()

(* the regression behind the dedicated trace lane: a drive whose kernel
   events wrap the dense ring thousands of times must not evict the few
   causal spans a timeline is assembled from *)
let test_trace_survives_dense_wrap () =
  trace_fresh ();
  Telemetry.Recorder.set_capacity 16;
  let t =
    Thread.create
      (fun () ->
        let lbl = Telemetry.Trace.solo_label in
        Telemetry.Recorder.emit Telemetry.Recorder.Trace_queued ~label:lbl
          ~a:41 ~b:0;
        Telemetry.Recorder.emit Telemetry.Recorder.Trace_prefill ~label:lbl
          ~a:41 ~b:4;
        for i = 1 to 1_000 do
          Telemetry.Recorder.emit Telemetry.Recorder.Kernel_begin ~label:lbl
            ~a:i ~b:0;
          Telemetry.Recorder.emit Telemetry.Recorder.Kernel_end ~label:lbl
            ~a:i ~b:0
        done;
        Telemetry.Recorder.emit Telemetry.Recorder.Trace_decode ~label:lbl
          ~a:41 ~b:1;
        Telemetry.Trace.terminal ~id:41 ~label:lbl ~state:3 ())
      ()
  in
  Thread.join t;
  Telemetry.Recorder.set_capacity 4096;
  (match Telemetry.Trace.check 41 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "trace evicted by dense wrap: %s" m);
  checki "full causal timeline survived" 4
    (List.length (Telemetry.Trace.timeline 41));
  trace_done ()

(* ---- Prometheus exposition details ---- *)

let test_expose_escape_label () =
  Alcotest.(check string)
    "backslash, quote and newline escaped" "a\\\"b\\\\c\\nd"
    (Telemetry.Expose.escape_label "a\"b\\c\nd")

let test_expose_histogram_exposition () =
  reset_on ();
  let h = Telemetry.Histogram.find_or_create "test.prom.lat_ms" in
  Telemetry.Histogram.observe h 1.0;
  Telemetry.Histogram.observe h 10.0;
  Telemetry.Histogram.observe h 10.0;
  off ();
  let s = Telemetry.Expose.prometheus () in
  checkb "TYPE histogram line" true
    (contains ~needle:"# TYPE test_prom_lat_ms histogram" s);
  checkb "le buckets" true (contains ~needle:"test_prom_lat_ms_bucket{le=\"" s);
  checkb "+Inf bucket" true
    (contains ~needle:"test_prom_lat_ms_bucket{le=\"+Inf\"} 3" s);
  checkb "sum line" true (contains ~needle:"test_prom_lat_ms_sum 21" s);
  checkb "count line" true (contains ~needle:"test_prom_lat_ms_count 3" s);
  match Telemetry.Expose.check s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "exposition rejected by its own checker: %s" m

let test_expose_exemplar_gauge () =
  reset_on ();
  Telemetry.Trace.reset ();
  Telemetry.Trace.retain ~id:77 ~reason:"ttft_breach";
  Telemetry.Trace.exemplar ~metric:Telemetry.Trace.metric_ttft ~value_ms:33.0
    ~id:77;
  let s = Telemetry.Expose.prometheus () in
  off ();
  Telemetry.Trace.reset ();
  checkb "exemplar TYPE line" true
    (contains ~needle:"# TYPE parlooper_trace_exemplar gauge" s);
  checkb "exemplar links trace id" true
    (contains
       ~needle:"parlooper_trace_exemplar{metric=\"ttft\",trace_id=\"77\"} 33"
       s);
  match Telemetry.Expose.check s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "exposition rejected by its own checker: %s" m

(* Json_check-style negative cases: the validator must reject the
   malformations the escaping exists to prevent *)
let test_expose_check_rejects_malformed () =
  let t = "# TYPE m counter\n" in
  let bad =
    [ ("name starting with a digit", "9metric 1\n");
      ("unterminated label value", t ^ "m{l=\"oops} 1\n");
      ("unescaped quote in label value", t ^ "m{l=\"a\"b\"} 1\n");
      ("missing value", t ^ "m{l=\"v\"}\n");
      ("non-numeric value", t ^ "m 1.2.3\n");
      ("sample without a TYPE line", "m 1\n") ]
  in
  List.iter
    (fun (what, s) ->
      match Telemetry.Expose.check s with
      | Ok () -> Alcotest.failf "checker accepted %s" what
      | Error _ -> ())
    bad;
  match Telemetry.Expose.check "# TYPE m counter\nm 1\nm{l=\"a\\\"b\"} 2\n" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "checker rejected a valid exposition: %s" m

let () =
  Alcotest.run "telemetry"
    [
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
      ( "span",
        [
          Alcotest.test_case "disabled" `Quick test_span_disabled_records_nothing;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception" `Quick
            test_span_exception_still_recorded;
          Alcotest.test_case "bounded store" `Quick test_span_cap;
        ] );
      ( "gauge", [ Alcotest.test_case "basic" `Quick test_gauge_basic ] );
      ( "expose",
        [
          Alcotest.test_case "jsonl snapshots" `Quick test_expose_jsonl;
          Alcotest.test_case "prometheus" `Quick test_expose_prometheus;
          Alcotest.test_case "escape_label" `Quick test_expose_escape_label;
          Alcotest.test_case "histogram buckets" `Quick
            test_expose_histogram_exposition;
          Alcotest.test_case "trace exemplar gauge" `Quick
            test_expose_exemplar_gauge;
          Alcotest.test_case "check rejects malformed" `Quick
            test_expose_check_rejects_malformed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span-tree conservation" `Quick test_trace_check;
          Alcotest.test_case "tail-based retention" `Quick
            test_trace_retention;
          Alcotest.test_case "exemplars resolve retained" `Quick
            test_trace_exemplars;
          Alcotest.test_case "chrome replica lanes" `Quick
            test_trace_chrome_lanes;
          Alcotest.test_case "dump round-trip" `Quick test_trace_dump;
          Alcotest.test_case "survives dense-lane wrap" `Quick
            test_trace_survives_dense_wrap;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "emit/decode" `Quick test_recorder_emit_decode;
          Alcotest.test_case "kill switch" `Quick test_recorder_kill_switch;
          Alcotest.test_case "ring wrap" `Quick test_recorder_wrap;
          Alcotest.test_case "trace json" `Quick test_recorder_trace_json;
          Alcotest.test_case "post-mortem dump" `Quick
            test_recorder_post_mortem;
          Alcotest.test_case "emit allocates nothing" `Quick
            test_recorder_emit_no_alloc;
        ] );
      ( "counter",
        [ Alcotest.test_case "cross-domain" `Quick test_counter_cross_domain ]
      );
      ( "histogram",
        [
          Alcotest.test_case "observe/quantile" `Quick test_histogram_basic;
          Alcotest.test_case "empty/reset" `Quick
            test_histogram_empty_and_reset;
          Alcotest.test_case "merge across domains" `Quick
            test_histogram_merge_across_domains;
        ] );
      ( "json-check",
        [
          Alcotest.test_case "rejects malformed" `Quick
            test_json_check_rejects_malformed;
          Alcotest.test_case "parses value" `Quick
            test_json_check_parses_value;
        ] );
      ( "registry",
        [
          Alcotest.test_case "kernel stats" `Quick test_registry_kernel_stats;
          Alcotest.test_case "predictions" `Quick test_registry_predictions;
          Alcotest.test_case "reset" `Quick test_registry_reset;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace json" `Quick test_chrome_trace_json;
          Alcotest.test_case "report json" `Quick test_report_json;
          Alcotest.test_case "roofline" `Quick test_roofline;
        ] );
    ]
