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

let gemm_run m n k block spec threads dtype telemetry =
  check_spec spec;
  let cfg = make_cfg m n k block dtype in
  let host = Platform.host in
  let peak_gflops =
    Platform.peak_gflops
      ~cores:(min threads (Platform.cores host))
      host (dtype_of_string dtype)
  in
  let ok =
    Front.with_telemetry ~peak_gflops telemetry (fun () ->
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
        Printf.printf
          "%dx%dx%d %s spec=%s threads=%d: %.2f GFLOPS, correct=%b\n" m k n
          dtype spec threads measured_gflops ok;
        (* confront the §II-E model (host platform) with this measurement *)
        if Telemetry.Registry.enabled () then (
          try
            let predicted =
              (Gemm_trace.score ~platform:host ~nthreads:threads cfg spec)
                .Perf_model.gflops
            in
            Telemetry.Registry.record_prediction
              ~name:(Printf.sprintf "gemm %dx%dx%d %s" m n k spec)
              ~predicted_gflops:predicted ~measured_gflops
          with _ -> ());
        ok)
  in
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
      $ threads_arg $ dtype_arg $ Front.telemetry)

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
  let serve telemetry s =
    Front.with_telemetry telemetry (fun () -> ignore (Front.serve s))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"continuous-batching LLM serving demo (synthetic Poisson load)")
    Term.(const serve $ Front.telemetry $ Front.serve_config)

let chaos_cmd =
  let chaos c = if not (snd (Front.chaos c)) then exit 1 in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "run the serve loop under seeded deterministic fault injection and \
          check liveness, ledger and bit-identical-recovery invariants")
    Term.(const chaos $ Front.chaos_config)

let () =
  let info = Cmd.info "parlooper" ~doc:"PARLOOPER/TPP kernel toolbox" in
  exit
    (Front.eval
       (Cmd.group info
          [ gemm_cmd; tune_cmd; model_cmd; platforms_cmd; serve_cmd; chaos_cmd;
            recorder_cmd; trace_cmd ]))
