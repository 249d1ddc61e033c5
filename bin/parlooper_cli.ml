(* Command-line front-end for the PARLOOPER/TPP library:

     parlooper gemm  -m 512 -n 512 -k 512 --spec BCa --threads 4
     parlooper gemm  -m 512 -n 512 -k 512 --spec BCa --trace out.json
     parlooper tune  -m 512 -n 512 -k 512 --platform spr --candidates 200
     parlooper model -m 2048 -n 2048 -k 2048 --spec BCa --platform zen4
     parlooper platforms
     parlooper serve --rate 30 --duration 2 --policy deadline --deadline-ms 100

   --trace writes a Chrome trace_event JSON (open in chrome://tracing or
   ui.perfetto.dev) with one span per team thread per loop nest;
   --telemetry prints the registry report (achieved GFLOPS, JIT-cache
   behaviour, perf-model deviation) without writing a trace file. *)

open Cmdliner

let dtype_of_string = function
  | "f32" -> Datatype.F32
  | "bf16" -> Datatype.BF16
  | s -> invalid_arg ("unknown dtype " ^ s)

let m_arg = Arg.(value & opt int 512 & info [ "m" ] ~doc:"GEMM M dimension")
let n_arg = Arg.(value & opt int 512 & info [ "n" ] ~doc:"GEMM N dimension")
let k_arg = Arg.(value & opt int 512 & info [ "k" ] ~doc:"GEMM K dimension")

let block_arg =
  Arg.(value & opt int 32 & info [ "block" ] ~doc:"bm = bn = bk block size")

let spec_arg =
  Arg.(
    value & opt string "BCa"
    & info [ "spec" ] ~doc:"loop_spec_string (e.g. 'BCa', 'bcaBCb')")

let threads_arg =
  Arg.(value & opt int 4 & info [ "threads" ] ~doc:"team size")

let dtype_arg =
  Arg.(value & opt string "f32" & info [ "dtype" ] ~doc:"f32 or bf16")

let platform_arg =
  Arg.(
    value & opt string "spr"
    & info [ "platform" ] ~doc:"spr | gvt3 | zen4 | adl | host")

let candidates_arg =
  Arg.(value & opt int 200 & info [ "candidates" ] ~doc:"tuning candidates")

let search_arg =
  Arg.(
    value & opt string "exhaustive"
    & info [ "search" ]
        ~doc:
          "candidate exploration: $(b,exhaustive) enumeration or \
           model-guided $(b,beam), $(b,greedy) or $(b,bandit) search")

let beam_width_arg =
  Arg.(
    value & opt int 8
    & info [ "beam-width" ] ~doc:"states kept per step (with --search beam)")

let budget_arg =
  Arg.(
    value & opt int 200
    & info [ "budget" ]
        ~doc:"max candidates the model-guided search may score")

let tune_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~doc:"PRNG seed (with --search bandit)")

let measure_top_arg =
  Arg.(
    value & opt int 0
    & info [ "measure-top" ]
        ~doc:
          "re-rank this many model-best survivors by real measurement on \
           this host (0 = modeled only)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:"write a Chrome trace_event JSON timeline to $(docv)"
        ~docv:"FILE")

let telemetry_arg =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:"collect runtime telemetry and print the registry report")

let make_cfg m n k block dtype =
  Gemm.make_config ~bm:block ~bn:block ~bk:block
    ~dtype:(dtype_of_string dtype) ~m ~n ~k ()

(* validate a user-supplied loop spec up front so a typo produces the
   parser's structured diagnostic (reason + position) instead of a raised
   Invalid_spec out of the first dispatch *)
let check_spec spec =
  match Spec_parser.parse_result spec with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "invalid loop spec %S: %s\n" spec
      (Spec_parser.error_to_string e);
    exit 1

let gemm_run m n k block spec threads dtype trace telemetry =
  check_spec spec;
  let cfg = make_cfg m n k block dtype in
  let traced = telemetry || trace <> None in
  if traced then begin
    Telemetry.Registry.reset ();
    Telemetry.Registry.enable ()
  end;
  let g = Gemm.create cfg spec in
  let rng = Prng.create 1 in
  let a = Tensor.create (dtype_of_string dtype) [| m; k |] in
  let b = Tensor.create (dtype_of_string dtype) [| k; n |] in
  Tensor.fill_random a rng ~scale:1.0;
  Tensor.fill_random b rng ~scale:1.0;
  let t0 = Telemetry.Clock.now_s () in
  let c = Gemm.run_logical ~nthreads:threads g ~a ~b in
  let dt = Telemetry.Clock.now_s () -. t0 in
  let ok = Tensor.approx_equal ~tol:1e-3 c (Reference.matmul a b) in
  let measured_gflops = Gemm.flops cfg /. dt /. 1e9 in
  Printf.printf "%dx%dx%d %s spec=%s threads=%d: %.2f GFLOPS, correct=%b\n" m
    k n dtype spec threads measured_gflops ok;
  if traced then begin
    (* confront the §II-E model (host platform) with this measurement *)
    let host = Platform.host in
    (try
       let predicted =
         (Gemm_trace.score ~platform:host ~nthreads:threads cfg spec)
           .Perf_model.gflops
       in
       Telemetry.Registry.record_prediction
         ~name:(Printf.sprintf "gemm %dx%dx%d %s" m n k spec)
         ~predicted_gflops:predicted ~measured_gflops
     with _ -> ());
    Telemetry.Registry.disable ();
    Telemetry.Report.print
      ~peak_gflops:
        (Platform.peak_gflops
           ~cores:(min threads (Platform.cores host))
           host (dtype_of_string dtype))
      ~mem_bw_gbs:host.Platform.mem_bw_gbs ();
    match trace with
    | Some path -> (
      try
        Telemetry.Chrome_trace.write path;
        Printf.printf "trace written to %s (open in chrome://tracing)\n" path
      with Sys_error msg ->
        Printf.eprintf "cannot write trace: %s\n" msg;
        exit 1)
    | None -> ()
  end;
  if not ok then exit 1

let tune m n k block dtype platform candidates search_kind beam_width budget
    seed measure_top =
  match Platform.by_name platform with
  | None ->
    Printf.eprintf "unknown platform %s\n" platform;
    exit 1
  | Some p ->
    let cfg = make_cfg m n k block dtype in
    let nthreads = Platform.cores p in
    let print_top ranked =
      List.iteri
        (fun i (e : Autotune.entry) ->
          if i < 10 then
            Printf.printf "  #%-2d %-16s %10.0f GFLOPS (%s)\n" (i + 1)
              e.Autotune.spec e.Autotune.gflops
              (if e.Autotune.predicted_gflops <> None then "measured"
               else "modeled"))
        ranked
    in
    if search_kind = "exhaustive" then begin
      let report =
        Autotune.tune_gemm ~max_candidates:candidates
          (Autotune.Modeled { platform = p; nthreads })
          cfg
      in
      Printf.printf
        "evaluated %d instantiations (%d skipped) in %.2fs; top 10 for %s:\n"
        report.Autotune.evaluated report.Autotune.skipped
        report.Autotune.tuning_seconds p.Platform.name;
      print_top report.Autotune.ranked
    end
    else
      match Search.strategy_of_string search_kind with
      | None ->
        Printf.eprintf
          "unknown search %S (exhaustive | beam | greedy | bandit)\n"
          search_kind;
        exit 1
      | Some s ->
        let strategy =
          match s with
          | Search.Beam { depth; _ } ->
            Search.Beam { width = beam_width; depth }
          | other -> other
        in
        let report =
          Search.search ~strategy ~max_evals:budget ~measure_top ~seed
            ~platform:p ~nthreads cfg
        in
        Printf.printf
          "%s search: scored %d of %d candidates (%.1f%% of the space), \
           measured %d, %.2fs; top 10 for %s:\n"
          (Search.strategy_name strategy)
          report.Search.evaluated report.Search.space
          (100.0
          *. float_of_int report.Search.evaluated
          /. float_of_int (max 1 report.Search.space))
          report.Search.measured report.Search.tuning_seconds p.Platform.name;
        print_top report.Search.ranked;
        List.iter
          (fun (s : Search.step_stat) ->
            Printf.printf
              "  step %-2d generated %-3d scored %-3d pruned %-3d best %.0f\n"
              s.Search.step s.Search.generated s.Search.scored s.Search.pruned
              s.Search.best_gflops)
          report.Search.steps;
        (match report.Search.rank_correlation with
        | Some rho ->
          Printf.printf "  model-vs-measured rank correlation: %+.2f\n" rho
        | None -> ())

let model m n k block dtype platform spec threads =
  match Platform.by_name platform with
  | None ->
    Printf.eprintf "unknown platform %s\n" platform;
    exit 1
  | Some p ->
    check_spec spec;
    let cfg = make_cfg m n k block dtype in
    let r = Gemm_trace.score ~platform:p ~nthreads:threads cfg spec in
    Printf.printf
      "%s on %s with %d threads: %.0f GFLOPS modeled (%.0f%% compute-bound \
       invocations, %.1f MB DRAM reads)\n"
      spec p.Platform.name threads r.Perf_model.gflops
      (100.0 *. r.Perf_model.compute_bound_fraction)
      (r.Perf_model.mem_read_bytes /. 1e6)

let platforms () =
  List.iter
    (fun (p : Platform.t) ->
      Printf.printf "%-12s %3d cores, f32 %8.0f GF, bf16 %8.0f GF, %6.0f GB/s\n"
        p.Platform.name (Platform.cores p)
        (Platform.peak_gflops p Datatype.F32)
        (Platform.peak_gflops p Datatype.BF16)
        p.Platform.mem_bw_gbs)
    Platform.all

(* ---- serve: continuous-batching inference serving demo ---- *)

let rate_arg =
  Arg.(
    value & opt float 20.0
    & info [ "rate" ] ~doc:"mean Poisson arrival rate (requests/s)")

let duration_arg =
  Arg.(
    value & opt float 3.0
    & info [ "duration" ] ~doc:"seconds of synthetic arrivals")

let prompt_min_arg =
  Arg.(value & opt int 4 & info [ "prompt-min" ] ~doc:"min prompt tokens")

let prompt_max_arg =
  Arg.(value & opt int 12 & info [ "prompt-max" ] ~doc:"max prompt tokens")

let tokens_min_arg =
  Arg.(value & opt int 2 & info [ "tokens-min" ] ~doc:"min new tokens")

let tokens_max_arg =
  Arg.(value & opt int 8 & info [ "tokens-max" ] ~doc:"max new tokens")

let deadline_arg =
  Arg.(
    value & opt float 0.0
    & info [ "deadline-ms" ]
        ~doc:"per-request completion SLO in ms (0 disables; goodput counts \
              requests that finish within it)")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ] ~doc:"admission queue bound (excess rejected)")

let batch_arg =
  Arg.(
    value & opt int 8
    & info [ "max-batch" ] ~doc:"max concurrently decoding sessions")

let policy_arg =
  Arg.(
    value & opt string "fcfs"
    & info [ "policy" ] ~doc:"admission policy: fcfs | deadline")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"load-generator seed")

let live_metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "live-metrics" ]
        ~doc:
          "stream periodic live-metrics snapshots (one JSON object per \
           line: counters, gauges, deltas and per-second rates) to $(docv) \
           while serving; '-' streams to stdout"
        ~docv:"FILE")

let live_interval_arg =
  Arg.(
    value & opt int 500
    & info [ "live-interval-ms" ]
        ~doc:"interval between live-metrics snapshots in milliseconds")

let replicas_arg =
  Arg.(
    value & opt int 1
    & info [ "replicas" ]
        ~doc:"decode scheduler replicas behind the router (1 = no router)")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ]
        ~doc:"tensor-parallel shards inside each replica (bit-identical to \
              unsharded)")

let disaggregate_arg =
  Arg.(
    value & flag
    & info [ "disaggregate" ]
        ~doc:"run prefill on a dedicated replica and hand finished KV \
              caches to decode replicas over the handoff channel")

let placement_arg =
  Arg.(
    value & opt string "rr"
    & info [ "placement" ]
        ~doc:"router placement: rr | jsq | deadline")

let hard_kill_arg =
  Arg.(
    value & flag
    & info [ "hard-kill" ]
        ~doc:"hard-kill replica 1 halfway through the run: its in-flight \
              sessions live-migrate to the surviving replicas (requires \
              --replicas >= 2)")

let paged_arg =
  Arg.(
    value & flag
    & info [ "paged" ]
        ~doc:"paged KV storage: fixed-size token blocks from a shared arena \
              with copy-on-write sharing and prompt-prefix deduplication \
              (bit-identical to contiguous)")

let block_size_arg =
  Arg.(
    value & opt int 16
    & info [ "block-size" ] ~doc:"tokens per KV block (with --paged)")

let num_blocks_arg =
  Arg.(
    value & opt int 128
    & info [ "num-blocks" ]
        ~doc:"KV arena size in blocks per pool (with --paged)")

let spec_decode_arg =
  Arg.(
    value & opt int 0
    & info [ "spec-decode" ] ~docv:"K"
        ~doc:"speculative decoding: propose $(docv) draft tokens per round \
              and verify them in one batched pass (0 disables; \
              token-identical to greedy decoding)")

let draft_layers_arg =
  Arg.(
    value & opt int 1
    & info [ "draft-layers" ]
        ~doc:"decoder layers of the draft model (with --spec-decode)")

let sys_prompt_arg =
  Arg.(
    value & opt int 0
    & info [ "sys-prompt" ]
        ~doc:"tokens of a shared system prompt prepended to every request \
              (the workload shape --paged prefix sharing deduplicates)")

let online_tune_arg =
  Arg.(
    value & flag
    & info [ "online-tune" ]
        ~doc:
          "tune serve-path GEMM shapes on a background domain and hot-swap \
           their loop instantiations once a bit-identity check passes \
           (decode outputs are unchanged)")

let serve_trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "dump retained causal request traces (tail-sampled: SLO breaches, \
           faults, sheds, migrations, plus a seeded 1-in-N baseline) into \
           $(docv) after the run; inspect with 'parlooper trace'")

let serve_trace_sample_arg =
  Arg.(
    value & opt int 16
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "baseline sampling rate with --trace-dir: retain roughly one in \
           $(docv) healthy requests alongside every breaching one")

let serve rate duration pmin pmax tmin tmax deadline_ms max_queue max_batch
    policy seed threads replicas shards disaggregate placement hard_kill
    paged block_size num_blocks spec_decode draft_layers sys_prompt
    online_tune trace_dir trace_sample live_metrics live_interval_ms trace
    telemetry =
  if rate <= 0.0 || duration <= 0.0 then begin
    Printf.eprintf "--rate and --duration must be positive\n";
    exit 1
  end;
  if pmin < 1 || pmax < pmin || tmin < 1 || tmax < tmin then begin
    Printf.eprintf "need 1 <= prompt-min <= prompt-max and likewise tokens\n";
    exit 1
  end;
  if block_size < 1 || num_blocks < 1 || spec_decode < 0 || draft_layers < 1
     || sys_prompt < 0
  then begin
    Printf.eprintf
      "need positive --block-size/--num-blocks/--draft-layers and \
       non-negative --spec-decode/--sys-prompt\n";
    exit 1
  end;
  let policy =
    match Serve.Scheduler.policy_of_string policy with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown policy %S (fcfs | deadline)\n" policy;
      exit 1
  in
  let placement =
    match Cluster.Router.placement_of_string placement with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown placement %S (rr | jsq | deadline)\n" placement;
      exit 1
  in
  if replicas < 1 || shards < 1 then begin
    Printf.eprintf "--replicas and --shards must be positive\n";
    exit 1
  end;
  if hard_kill && replicas < 2 then begin
    Printf.eprintf "--hard-kill needs --replicas >= 2 (somewhere to migrate)\n";
    exit 1
  end;
  Telemetry.Registry.reset ();
  Telemetry.Registry.enable ();
  (match trace_dir with
  | None -> ()
  | Some _ ->
    (* big rings so a whole run's sparse trace events survive; fresh
       trace state so retention and exemplars describe this run only *)
    Telemetry.Recorder.set_capacity 65536;
    Telemetry.Recorder.reset ();
    Telemetry.Trace.reset ();
    Telemetry.Trace.set_baseline (max 1 trace_sample);
    Telemetry.Trace.set_seed seed);
  let rng = Prng.create 7 in
  let llm = Llm.create ~rng ~block:8 Llm.tiny in
  let load =
    { Serve.Load_gen.seed; rate_hz = rate; duration_s = duration;
      prompt_len = Serve.Load_gen.Uniform (pmin, pmax);
      new_tokens = Serve.Load_gen.Uniform (tmin, tmax);
      deadline_s =
        (if deadline_ms > 0.0 then deadline_ms /. 1000.0 else Float.infinity);
      sys_prompt_len = sys_prompt
    }
  in
  let trace_reqs = Serve.Load_gen.generate load ~vocab:Llm.tiny.Llm.vocab in
  Printf.printf
    "serving %d arrivals (%.0f req/s x %.1fs, prompts %s, new tokens %s) on \
     %s: queue<=%d batch<=%d policy=%s threads=%d replicas=%d shards=%d \
     placement=%s%s\n%!"
    (List.length trace_reqs) rate duration
    (Serve.Load_gen.dist_to_string load.Serve.Load_gen.prompt_len)
    (Serve.Load_gen.dist_to_string load.Serve.Load_gen.new_tokens)
    Llm.tiny.Llm.name max_queue max_batch
    (Serve.Scheduler.policy_name policy)
    threads replicas shards
    (Cluster.Router.placement_name placement)
    (if disaggregate then " disaggregated" else "");
  if paged then
    Printf.printf "paged KV: %d-token blocks, %d-block arena, prefix sharing \
                   on\n%!"
      block_size num_blocks;
  if spec_decode > 0 then
    Printf.printf "speculative decoding: k=%d, %d draft layer%s\n%!"
      spec_decode draft_layers
      (if draft_layers = 1 then "" else "s");
  if online_tune then
    Printf.printf "online tuning: per-shape spec cache + background tuner on\n%!";
  let config =
    { Serve.Scheduler.default_config with
      Serve.Scheduler.max_queue; max_batch; policy;
      nthreads = Some threads; paged; block_size; num_blocks;
      spec_k = spec_decode; draft_layers; online_tune }
  in
  let live_out =
    match live_metrics with
    | None -> None
    | Some "-" -> Some (stdout, false)
    | Some path -> (
      try Some (open_out path, true)
      with Sys_error msg ->
        Printf.eprintf "cannot open %s: %s\n" path msg;
        exit 1)
  in
  let live =
    Option.map
      (fun (out, _) ->
        { Cluster.Driver.every_s =
            float_of_int (max 1 live_interval_ms) /. 1000.0;
          out })
      live_out
  in
  let finish_live snapshots =
    match live_out with
    | None -> ()
    | Some (oc, close) ->
      if close then close_out oc;
      Printf.printf "live metrics: %d snapshot%s%s\n%!" snapshots
        (if snapshots = 1 then "" else "s")
        (match live_metrics with
        | Some p when p <> "-" -> " -> " ^ p
        | _ -> "")
  in
  let print_arena pool =
    match Serve.Kv_pool.manager pool with
    | None -> ()
    | Some m ->
      let pins =
        match Serve.Kv_pool.prefix_cache pool with
        | Some p -> Kv.Prefix.pinned p
        | None -> 0
      in
      Printf.printf
        "KV arena: %d/%d blocks free at exit (%d prefix-pinned); fleet \
         totals: %d allocated, %d freed, %d COW copies, %d prefix hits\n%!"
        (Kv.Block_manager.free_blocks m)
        (Kv.Block_manager.num_blocks m)
        pins
        (Telemetry.Counter.value Kv.Block_manager.pages_allocated_name)
        (Telemetry.Counter.value Kv.Block_manager.pages_freed_name)
        (Telemetry.Counter.value Kv.Block_manager.cow_copies_name)
        (Telemetry.Counter.value Kv.Block_manager.prefix_hits_name)
  in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas; shards; disaggregate; placement;
      scheduler = config }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e ->
      Printf.eprintf "cannot build cluster: %s\n" e;
      exit 1
  in
  let hk = if hard_kill then Some (duration /. 2.0, 1) else None in
  let o = Cluster.Driver.run ?live ?hard_kill:hk router trace_reqs in
  finish_live o.Cluster.Driver.snapshots;
  List.iter
    (fun (i, s) ->
      Printf.printf "replica %d%s: %s\n" i
        (if i >= replicas then " (prefill)" else "")
        (Serve.Metrics.summary_to_string s))
    o.Cluster.Driver.per_replica;
  Printf.printf "fleet (histograms merged across replicas):\n";
  Serve.Metrics.print o.Cluster.Driver.summary;
  (* created/reused are fleet-wide counters; free/peak are per pool *)
  (match Cluster.Router.pools router with
  | [] -> ()
  | (p :: _) as pools ->
    Printf.printf "KV fleet: %d created, %d reused across %d pools\n%!"
      (Serve.Kv_pool.created p) (Serve.Kv_pool.reused p)
      (List.length pools);
    List.iteri
      (fun i pool ->
        Printf.printf "KV pool %d: %d free at exit, peak %d rows/layer\n%!" i
          (Serve.Kv_pool.free_count pool)
          (Serve.Kv_pool.peak_rows pool);
        print_arena pool)
      pools);
  if online_tune then begin
    (* let in-flight background tunes land, then report and stop the
       tuning domain so the process exits cleanly *)
    ignore (Spec_cache.drain ~timeout_s:10.0);
    let s = Spec_cache.stats () in
    Printf.printf
      "spec cache: %d hits, %d misses, %d hot-swaps, %d rejected, %d tunes\n%!"
      s.Spec_cache.hits s.Spec_cache.misses s.Spec_cache.swaps
      s.Spec_cache.rejected s.Spec_cache.tunes;
    List.iter
      (fun (e : Spec_cache.entry) ->
        Printf.printf "  %-40s %-9s %s\n" e.Spec_cache.shape e.Spec_cache.state
          e.Spec_cache.spec)
      (Spec_cache.entries ());
    Spec_cache.disable ()
  end;
  (match trace_dir with
  | None -> ()
  | Some dir ->
    let retained = Telemetry.Trace.dump ~dir in
    Printf.printf
      "causal traces: %d retained -> %s (inspect: parlooper trace worst \
       --metric ttft --dir %s)\n%!"
      retained dir dir);
  Telemetry.Registry.disable ();
  if telemetry then
    Telemetry.Report.print
      ~peak_gflops:(Platform.peak_gflops Platform.host Datatype.F32)
      ~mem_bw_gbs:Platform.host.Platform.mem_bw_gbs ();
  match trace with
  | Some path -> (
    try
      Telemetry.Chrome_trace.write path;
      Printf.printf "trace written to %s (open in chrome://tracing)\n" path
    with Sys_error msg ->
      Printf.eprintf "cannot write trace: %s\n" msg;
      exit 1)
  | None -> ()

(* ---- chaos: serve loop under seeded deterministic fault injection ---- *)

let chaos_requests_arg =
  Arg.(
    value & opt int 24
    & info [ "requests" ] ~doc:"number of requests in the chaos trace")

let plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan" ]
        ~doc:
          "fault plan, e.g. 'serve.decode:exn@n3+11;serve.kv.acquire:deny@n2'; \
           rule = site ':' kind ('exn'|'nan'|'deny'|'stall(MS)') ['@' trigger \
           ('nN[+PERIOD]' | 'pPROB')]. Default: a plan covering every fault \
           site class.")

let chaos seed requests plan_str =
  if requests < 1 then begin
    Printf.eprintf "--requests must be positive\n";
    exit 1
  end;
  let plan =
    match plan_str with
    | None -> None
    | Some s -> (
      match Fault.plan_of_string ~seed s with
      | Ok p -> Some p
      | Error msg ->
        Printf.eprintf "invalid fault plan: %s\n" msg;
        exit 1)
  in
  let config =
    { Cluster.Chaos.solo with Cluster.Chaos.seed; requests; plan }
  in
  let effective =
    match plan with
    | Some p -> p
    | None -> Cluster.Chaos.default_plan ~replicas:1 seed
  in
  Printf.printf "chaos: seed %d, %d requests\nplan: %s\n%!" seed requests
    (Fault.plan_to_string effective);
  let r = Cluster.Chaos.run ~config () in
  print_string (Cluster.Chaos.report_to_string r);
  if r.Cluster.Chaos.injected = 0 then
    Printf.eprintf "warning: plan injected no faults\n";
  if r.Cluster.Chaos.violations <> [] then exit 1

(* ---- recorder: flight-recorder dump / check utilities ---- *)

let recorder_dump out_dir threads cluster =
  Telemetry.Registry.reset ();
  Telemetry.Registry.enable ();
  Telemetry.Recorder.set_enabled true;
  Telemetry.Recorder.set_dump_dir (Some out_dir);
  if cluster then begin
    (* a short 2-replica serve merges every replica's recorder events
       into one dump: the Chrome trace gets one process lane per replica
       (events labelled "replica:<i>") alongside the worker threads *)
    Telemetry.Recorder.set_capacity 65536;
    Telemetry.Recorder.reset ();
    let rng = Prng.create 7 in
    let llm = Llm.create ~rng ~block:8 Llm.tiny in
    let load =
      { Serve.Load_gen.seed = 42; rate_hz = 60.0; duration_s = 0.3;
        prompt_len = Serve.Load_gen.Uniform (4, 10);
        new_tokens = Serve.Load_gen.Uniform (2, 6);
        deadline_s = Float.infinity; sys_prompt_len = 0 }
    in
    let reqs = Serve.Load_gen.generate load ~vocab:Llm.tiny.Llm.vocab in
    let rcfg =
      { Cluster.Router.default_config with Cluster.Router.replicas = 2 }
    in
    match Cluster.Router.create ~config:rcfg llm with
    | Error e ->
      Printf.eprintf "cannot build cluster: %s\n" e;
      exit 1
    | Ok router -> ignore (Cluster.Driver.run router reqs)
  end
  else begin
    (* a small pooled GEMM exercises every instrumented seam — pool
       dispatch, barrier arrivals, JIT compile, kernel begin/end — so the
       dump demonstrates a multi-thread timeline *)
    let threads = max 1 threads in
    let dim = 64 and block = 32 in
    let spec = "BCa" in
    let cfg = make_cfg dim dim dim block "f32" in
    let g = Gemm.create cfg spec in
    let rng = Prng.create 1 in
    let a = Tensor.create Datatype.F32 [| dim; dim |] in
    let b = Tensor.create Datatype.F32 [| dim; dim |] in
    Tensor.fill_random a rng ~scale:1.0;
    Tensor.fill_random b rng ~scale:1.0;
    ignore (Gemm.run_logical ~nthreads:threads g ~a ~b)
  end;
  match Telemetry.Recorder.post_mortem ~reason:"cli.recorder.dump" with
  | Some prefix ->
    Printf.printf "flight dump: %s.{txt,trace.json} (%d events from %d \
                   threads%s)\n"
      prefix
      (List.length (Telemetry.Recorder.events ()))
      (List.length (Telemetry.Recorder.tids ()))
      (if cluster then ", replica lanes merged" else "")
  | None ->
    Printf.eprintf "no dump produced (recorder disabled or no events)\n";
    exit 1

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let recorder_check dir require_fault =
  let entries =
    try Sys.readdir dir
    with Sys_error msg ->
      Printf.eprintf "cannot read %s: %s\n" dir msg;
      exit 1
  in
  let traces =
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".trace.json")
    |> List.sort compare
  in
  if traces = [] then begin
    Printf.eprintf "no *.trace.json flight dumps in %s\n" dir;
    exit 1
  end;
  let fault_seen = ref false in
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      (match Telemetry.Json_check.check s with
      | Ok () -> ()
      | Error m ->
        Printf.eprintf "%s: malformed trace JSON: %s\n" path m;
        exit 1);
      if contains_sub s "\"cat\":\"fault\"" then fault_seen := true;
      Printf.printf "%s: valid (%d bytes)\n" path n)
    traces;
  if require_fault && not !fault_seen then begin
    Printf.eprintf
      "no fault event (\"cat\":\"fault\") in any dump under %s\n" dir;
    exit 1
  end;
  Printf.printf "checked %d dump(s)%s\n" (List.length traces)
    (if !fault_seen then ", fault events present" else "")

(* ---- trace: retained causal-timeline lookup ---- *)

let read_whole_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let trace_lookup_dir_arg =
  Arg.(
    value
    & opt string "/tmp/parlooper-traces"
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"trace dump directory (written by serve --trace-dir)")

let trace_id_arg =
  Arg.(
    required
    & pos 0 (some int) None
    & info [] ~docv:"ID" ~doc:"trace id (= request id) to print")

let trace_metric_arg =
  Arg.(
    value & opt string "ttft"
    & info [ "metric" ] ~doc:"latency metric: ttft | tpot")

let trace_require_decode_arg =
  Arg.(
    value & flag
    & info [ "require-decode" ]
        ~doc:"fail unless the resolved trace contains at least one decode \
              span (per index.txt)")

let print_trace_file dir id =
  let path = Filename.concat dir (Printf.sprintf "trace-%d.txt" id) in
  match read_whole_file path with
  | s -> print_string s
  | exception Sys_error _ ->
    Printf.eprintf
      "no retained trace %d under %s (not sampled, or the dump directory is \
       stale — see %s)\n"
      id dir
      (Filename.concat dir "index.txt");
    exit 1

let trace_show id dir = print_trace_file dir id

(* index.txt rows: "id reason events decode_spans" *)
let index_row dir id =
  match read_whole_file (Filename.concat dir "index.txt") with
  | exception Sys_error _ -> None
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ id'; reason; events; spans ]
          when int_of_string_opt id' = Some id ->
          Option.bind (int_of_string_opt events) (fun ev ->
              Option.map
                (fun sp -> (reason, ev, sp))
                (int_of_string_opt spans))
        | _ -> None)

let trace_worst metric dir require_decode =
  if metric <> "ttft" && metric <> "tpot" then begin
    Printf.eprintf "unknown metric %S (ttft | tpot)\n" metric;
    exit 1
  end;
  (* exemplars.txt rows: "metric value_ms id"; worst = largest value *)
  let rows =
    match read_whole_file (Filename.concat dir "exemplars.txt") with
    | exception Sys_error msg ->
      Printf.eprintf "cannot read exemplars under %s: %s\n" dir msg;
      exit 1
    | s ->
      String.split_on_char '\n' s
      |> List.filter_map (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ m; v; id ] when m = metric ->
            Option.bind (float_of_string_opt v) (fun v ->
                Option.map (fun id -> (v, id)) (int_of_string_opt id))
          | _ -> None)
  in
  match List.sort (fun a b -> compare b a) rows with
  | [] ->
    Printf.eprintf "no %s exemplar links a retained trace under %s\n" metric
      dir;
    exit 1
  | (v, id) :: _ ->
    (match index_row dir id with
    | Some (reason, events, spans) ->
      Printf.printf
        "worst %s: %.3f ms -> trace %d (%s, %d events, %d decode spans)\n"
        metric v id reason events spans;
      if require_decode && spans < 1 then begin
        Printf.eprintf "trace %d has no decode span\n" id;
        exit 1
      end
    | None ->
      Printf.printf "worst %s: %.3f ms -> trace %d\n" metric v id;
      if require_decode then begin
        Printf.eprintf "cannot verify decode spans: no index row for %d\n" id;
        exit 1
      end);
    print_trace_file dir id

let trace_cmd =
  let show =
    Cmd.v
      (Cmd.info "show"
         ~doc:"print the retained causal timeline of one request by trace id")
      Term.(const trace_show $ trace_id_arg $ trace_lookup_dir_arg)
  in
  let worst =
    Cmd.v
      (Cmd.info "worst"
         ~doc:
           "resolve the worst retained latency exemplar (largest observed \
            value of --metric) to its causal timeline and print it")
      Term.(
        const trace_worst $ trace_metric_arg $ trace_lookup_dir_arg
        $ trace_require_decode_arg)
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "inspect retained causal request traces (written by serve \
          --trace-dir)")
    [ show; worst ]

let recorder_out_arg =
  Arg.(
    value
    & opt string "/tmp/parlooper-flight"
    & info [ "out" ] ~doc:"directory to write the dump into" ~docv:"DIR")

let recorder_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~doc:"dump directory to check" ~docv:"DIR")

let require_fault_arg =
  Arg.(
    value & flag
    & info [ "require-fault" ]
        ~doc:"fail unless at least one dump contains a fault event")

let recorder_cluster_arg =
  Arg.(
    value & flag
    & info [ "cluster" ]
        ~doc:
          "demo workload is a short 2-replica serve instead of a pooled \
           GEMM; the Chrome trace carries one process lane per replica")

let recorder_cmd =
  let dump =
    Cmd.v
      (Cmd.info "dump"
         ~doc:
           "run a small demo workload (pooled GEMM, or a 2-replica serve \
            with --cluster) with the flight recorder armed and snapshot \
            the rings into a dump directory")
      Term.(
        const recorder_dump $ recorder_out_arg $ threads_arg
        $ recorder_cluster_arg)
  in
  let check =
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "validate every *.trace.json flight dump in a directory \
            (well-formed JSON; with --require-fault, at least one \
            injected-fault event)")
      Term.(const recorder_check $ recorder_dir_arg $ require_fault_arg)
  in
  Cmd.group
    (Cmd.info "recorder" ~doc:"flight-recorder dump and check utilities")
    [ dump; check ]

let gemm_cmd =
  Cmd.v (Cmd.info "gemm" ~doc:"run and verify a PARLOOPER GEMM")
    Term.(
      const gemm_run $ m_arg $ n_arg $ k_arg $ block_arg $ spec_arg
      $ threads_arg $ dtype_arg $ trace_arg $ telemetry_arg)

let tune_cmd =
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "auto-tune loop instantiations: exhaustive enumeration or \
          model-guided search (beam / greedy / bandit), modeled with \
          optional measured refinement")
    Term.(
      const tune $ m_arg $ n_arg $ k_arg $ block_arg $ dtype_arg
      $ platform_arg $ candidates_arg $ search_arg $ beam_width_arg
      $ budget_arg $ tune_seed_arg $ measure_top_arg)

let model_cmd =
  Cmd.v (Cmd.info "model" ~doc:"score one instantiation with the perf model")
    Term.(
      const model $ m_arg $ n_arg $ k_arg $ block_arg $ dtype_arg
      $ platform_arg $ spec_arg $ threads_arg)

let platforms_cmd =
  Cmd.v (Cmd.info "platforms" ~doc:"list modeled platforms")
    Term.(const platforms $ const ())

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"continuous-batching LLM serving demo (synthetic Poisson load)")
    Term.(
      const serve $ rate_arg $ duration_arg $ prompt_min_arg $ prompt_max_arg
      $ tokens_min_arg $ tokens_max_arg $ deadline_arg $ queue_arg $ batch_arg
      $ policy_arg $ seed_arg $ threads_arg $ replicas_arg $ shards_arg
      $ disaggregate_arg $ placement_arg $ hard_kill_arg $ paged_arg
      $ block_size_arg
      $ num_blocks_arg $ spec_decode_arg $ draft_layers_arg $ sys_prompt_arg
      $ online_tune_arg $ serve_trace_dir_arg $ serve_trace_sample_arg
      $ live_metrics_arg $ live_interval_arg $ trace_arg
      $ telemetry_arg)

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "run the serve loop under seeded deterministic fault injection and \
          check liveness, ledger and bit-identical-recovery invariants")
    Term.(const chaos $ seed_arg $ chaos_requests_arg $ plan_arg)

let () =
  let info = Cmd.info "parlooper" ~doc:"PARLOOPER/TPP kernel toolbox" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gemm_cmd; tune_cmd; model_cmd; platforms_cmd; serve_cmd; chaos_cmd;
            recorder_cmd; trace_cmd ]))
