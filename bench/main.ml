(* Benchmark harness: one runner per table and figure of the paper, plus
   Bechamel microbenchmarks of the real kernels on this host, the
   ablation suite, and the serving benchmark.

   Usage:
     dune exec bench/main.exe                 # every paper experiment
     dune exec bench/main.exe -- fig2 fig8    # selected experiments
     dune exec bench/main.exe -- micro        # Bechamel kernel benches
     dune exec bench/main.exe -- gemm         # quick measured GEMM points
     dune exec bench/main.exe -- --serve      # continuous-batching serve
     dune exec bench/main.exe -- --serve --serve-duration 2 --json out.json

   Pass --telemetry (anywhere in the argument list) to run the selected
   experiments with the telemetry registry enabled and print the
   aggregated report — per-kernel achieved GFLOPS, JIT-cache hit rate,
   predicted-vs-measured model deviation — at the end. Pass --json FILE
   to write the machine-readable BENCH file (schema parlooper-bench/6:
   bench name + config + metrics per entry, plus per-replica metric
   blocks and a fleet rollup for serve runs, and the kv.pages.* /
   serve.spec.* counters on serve entries) for runs that produce
   metrics (serve, gemm, micro); the file is validated before the
   process exits.

   --paged / --block-size / --num-blocks switch the serve and chaos
   harnesses to the paged KV arena, --spec-decode K / --draft-layers N
   turn on speculative decoding, and --sys-prompt N prepends a shared
   prefix to every generated prompt so the prefix trie has something to
   share. The "paged" experiment measures max concurrent width at a
   fixed arena, contiguous vs paged, and fails the process unless paged
   is strictly wider. *)

open Bechamel
open Toolkit

(* ---- machine-readable BENCH output (--json FILE) ----

   Commit-agnostic schema so the perf trajectory can be compared across
   PRs: each entry is {name, config (strings), metrics (numbers)}.
   Schema parlooper-bench/2 adds an optional per-entry "replicas" array
   ([{replica, metrics}] blocks) for cluster runs; /3 adds the paged-KV
   and speculative-decoding counters (kv_pages_..., spec_...) to serve
   entries plus the "paged-width" entry; /4 adds the tuner-cache
   counters; /5 adds the migration counters (resubmitted,
   migrations_started/completed/failed) to cluster-chaos entries; /6
   adds the trace-lane emit cost (trace_emit_ns, trace_overhead_pct) to
   the "recorder" entry. All purely additive: entries without the new
   keys are byte-compatible with earlier consumers and old outputs
   still validate unchanged. *)

type bench_entry = {
  bname : string;
  config : (string * string) list;
  metrics : (string * float) list;  (* fleet rollup for serve runs *)
  replicas : (int * (string * float) list) list;  (* [] = omit the key *)
}

let bench_entries : bench_entry list ref = ref []

let record_bench ?(replicas = []) ~name ~config ~metrics () =
  bench_entries := { bname = name; config; metrics; replicas } :: !bench_entries

let bench_json_string () =
  let b = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let pr_metrics ms =
    List.iteri
      (fun j (k, v) ->
        if j > 0 then pr ",";
        pr "\"%s\":%s"
          (Telemetry.Report.json_escape k)
          (Telemetry.Report.json_float v))
      ms
  in
  pr "{\"schema\":\"parlooper-bench/6\",\"host\":\"%s\",\"benches\":["
    (Telemetry.Report.json_escape Platform.host.Platform.name);
  List.iteri
    (fun i e ->
      if i > 0 then pr ",";
      pr "{\"name\":\"%s\",\"config\":{" (Telemetry.Report.json_escape e.bname);
      List.iteri
        (fun j (k, v) ->
          if j > 0 then pr ",";
          pr "\"%s\":\"%s\""
            (Telemetry.Report.json_escape k)
            (Telemetry.Report.json_escape v))
        e.config;
      pr "},\"metrics\":{";
      pr_metrics e.metrics;
      pr "}";
      if e.replicas <> [] then begin
        pr ",\"replicas\":[";
        List.iteri
          (fun j (r, ms) ->
            if j > 0 then pr ",";
            pr "{\"replica\":%d,\"metrics\":{" r;
            pr_metrics ms;
            pr "}}")
          e.replicas;
        pr "]"
      end;
      pr "}")
    (List.rev !bench_entries);
  pr "]}";
  Buffer.contents b

let write_bench_json path =
  let s = bench_json_string () in
  (* validate before anyone downstream consumes it *)
  (match Telemetry.Json_check.check s with
  | Ok () -> ()
  | Error m ->
    Printf.eprintf "internal error: bench JSON is malformed: %s\n" m;
    exit 1);
  let oc = open_out path in
  output_string oc s;
  close_out oc;
  Printf.printf "bench JSON written to %s (%d entr%s)\n%!" path
    (List.length !bench_entries)
    (if List.length !bench_entries = 1 then "y" else "ies")

(* ---- perf-regression gate (--compare BASELINE.json) ----

   Reads a committed bench JSON (any parlooper-bench/N schema) and
   compares this run's entries against it, matching each by its name and
   config, with per-metric tolerances:

   - correctness counters (violations, mismatched, double_released,
     numeric_errors) must match the baseline exactly — these are not
     performance numbers and have no noise band;
   - lower-is-better times (seconds, ..._s, ..._ms, ..._ns) may grow at
     most 1.5x over the baseline;
   - higher-is-better rates (gflops, tokens_per_s, events_per_s,
     ..._gflops) may shrink to at worst 1/1.5 of the baseline;
   - allocation counts (..._words) may grow at most 1.1x: they are
     deterministic, so a rise means something boxes;
   - signed overheads (..._pct) may rise at most 5 points above the
     baseline, a negative baseline counting as 0: a ratio band around a
     value near zero is either vacuous (a negative baseline) or tighter
     than the noise (a small positive one);
   - everything else is presence-only: the key must still be reported
     (a silently dropped metric is a regression of the bench itself).

   Any violation prints a FAIL line and the process exits non-zero, so
   `make smoke-regress` can gate a change on a committed baseline. *)

(* An entry is identified by its name and its config: the "gemm"
   experiment records several entries under one name, one per shape and
   thread count. *)
let entry_key name config =
  String.concat " "
    (name
    :: List.map (fun (k, v) -> k ^ "=" ^ v) (List.sort compare config))

(* baseline entries: name, config, metric name -> value *)
let baseline_metrics (j : Telemetry.Json_check.t) :
    (string * (string * string) list * (string * float) list) list =
  let module J = Telemetry.Json_check in
  let bad msg = raise (J.Bad_json msg) in
  let obj = function J.Obj kv -> kv | _ -> bad "expected object" in
  let benches =
    match List.assoc_opt "benches" (obj j) with
    | Some (J.Arr l) -> l
    | _ -> bad "no benches array"
  in
  List.map
    (fun e ->
      let kv = obj e in
      let name =
        match List.assoc_opt "name" kv with
        | Some (J.Str s) -> s
        | _ -> bad "bench entry without a name"
      in
      let config =
        match List.assoc_opt "config" kv with
        | Some (J.Obj cs) ->
          List.filter_map
            (fun (k, v) -> match v with J.Str s -> Some (k, s) | _ -> None)
            cs
        | _ -> []
      in
      let metrics =
        match List.assoc_opt "metrics" kv with
        | Some (J.Obj ms) ->
          List.filter_map
            (fun (k, v) -> match v with J.Num f -> Some (k, f) | _ -> None)
            ms
        | _ -> []
      in
      (name, config, metrics))
    benches

type tolerance =
  | Exact  (* correctness counter: any drift fails *)
  | Lower_better of float  (* current may be at most [factor] x baseline *)
  | Higher_better of float  (* current may be at least baseline / [factor] *)
  | Points of float
      (* current may be at most [points] above the baseline, or above 0
         when the baseline is negative *)
  | Presence  (* key must exist; value unconstrained *)

let perf_band = 1.5
let words_band = 1.1
let pct_points = 5.0

let tolerance_of metric =
  let suffix suf =
    let ls = String.length suf and lm = String.length metric in
    lm >= ls && String.sub metric (lm - ls) ls = suf
  in
  match metric with
  | "violations" | "mismatched" | "double_released" | "numeric_errors" ->
    Exact
  | "tokens_per_s" | "events_per_s" | "gflops" -> Higher_better perf_band
  | "seconds" -> Lower_better perf_band
  | _ when suffix "_gflops" -> Higher_better perf_band
  | _ when suffix "_pct" -> Points pct_points
  | _ when suffix "_words" -> Lower_better words_band
  | _ when suffix "_ms" || suffix "_ns" || suffix "_s" ->
    Lower_better perf_band
  | _ -> Presence

let compare_with_baseline path =
  let baseline =
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      baseline_metrics (Telemetry.Json_check.parse s)
    with
    | Sys_error msg ->
      Printf.eprintf "cannot read baseline %s: %s\n" path msg;
      exit 1
    | Telemetry.Json_check.Bad_json msg ->
      Printf.eprintf "baseline %s is not valid bench JSON: %s\n" path msg;
      exit 1
  in
  let current =
    List.map
      (fun e -> (entry_key e.bname e.config, e.metrics))
      (List.rev !bench_entries)
  in
  let failures = ref 0 in
  let fail_line fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        Printf.printf "  FAIL %s\n" s)
      fmt
  in
  Printf.printf "comparing against baseline %s:\n" path;
  List.iter
    (fun (name, config, base_ms) ->
      let key = entry_key name config in
      (* the config is printed only where the name alone is ambiguous *)
      let bname =
        if List.length (List.filter (fun (n, _, _) -> n = name) baseline) > 1
        then key
        else name
      in
      match List.assoc_opt key current with
      | None -> fail_line "%s: entry missing from this run" bname
      | Some cur_ms ->
        List.iter
          (fun (metric, base) ->
            match List.assoc_opt metric cur_ms with
            | None -> fail_line "%s.%s: metric no longer reported" bname metric
            | Some cur -> (
              let ok fmt = Printf.printf ("  ok   " ^^ fmt ^^ "\n") in
              match tolerance_of metric with
              | Exact ->
                if cur <> base then
                  fail_line "%s.%s: %g, baseline %g (must match exactly)"
                    bname metric cur base
                else ok "%s.%s: %g (exact)" bname metric cur
              | Lower_better f ->
                (* a zero baseline carries no scale to compare against *)
                if base > 0.0 && cur > base *. f then
                  fail_line "%s.%s: %g exceeds %.2gx baseline %g" bname
                    metric cur f base
                else ok "%s.%s: %g (baseline %g, <=%.2gx)" bname metric cur
                    base f
              | Higher_better f ->
                if base > 0.0 && cur < base /. f then
                  fail_line "%s.%s: %g below baseline %g / %.2g" bname metric
                    cur base f
                else ok "%s.%s: %g (baseline %g, >=1/%.2gx)" bname metric cur
                    base f
              | Points p ->
                let limit = Float.max base 0.0 +. p in
                if cur > limit then
                  fail_line "%s.%s: %g exceeds %g (baseline %g + %g points)"
                    bname metric cur limit base p
                else ok "%s.%s: %g (baseline %g, <=%g)" bname metric cur base
                    limit
              | Presence -> ok "%s.%s: %g (presence)" bname metric cur))
          base_ms)
    baseline;
  if !failures > 0 then begin
    Printf.eprintf "%d perf-regression failure(s) against %s\n" !failures path;
    exit 1
  end;
  Printf.printf "no regressions against %s\n%!" path

(* ---- Bechamel microbenchmarks of the real kernels ---- *)

let gemm_bench ~name ~dtype ~vnni_b dim block =
  let rng = Prng.create 99 in
  let cfg =
    Gemm.make_config ~bm:block ~bn:block ~bk:block ~dtype ~vnni_b ~k_step:4
      ~m:dim ~n:dim ~k:dim ()
  in
  let g = Gemm.create cfg "BCa" in
  let a = Tensor.create dtype [| dim; dim |] in
  let b = Tensor.create dtype [| dim; dim |] in
  Tensor.fill_random a rng ~scale:1.0;
  Tensor.fill_random b rng ~scale:1.0;
  let ap = Gemm.pack_a cfg a and bp = Gemm.pack_b cfg b in
  let cp = Gemm.alloc_c cfg in
  Test.make ~name (Staged.stage (fun () -> Gemm.run g ~a:ap ~b:bp ~c:cp))

let conv_bench ~name dim =
  let rng = Prng.create 98 in
  let cfg =
    Conv.make_config ~pad:1 ~bc:16 ~bk:16 ~c_step:2 ~n:1 ~c:32 ~k:32 ~h:dim
      ~w:dim ~r:3 ~s:3 ()
  in
  let cv = Conv.create cfg "acdebfg" in
  let inp = Tensor.create Datatype.F32 [| 1; 32; dim; dim |] in
  Tensor.fill_random inp rng ~scale:1.0;
  let wts = Tensor.create Datatype.F32 [| 32; 32; 3; 3 |] in
  Tensor.fill_random wts rng ~scale:1.0;
  let ip = Conv.pack_input cfg inp and wp = Conv.pack_weights cfg wts in
  let o = Conv.alloc_output cfg in
  Test.make ~name
    (Staged.stage (fun () -> Conv.run cv ~input:ip ~weights:wp ~output:o))

let spmm_bench ~name ~sparsity dim =
  let rng = Prng.create 97 in
  let a =
    Bcsc.random ~rng ~dtype:Datatype.F32 ~rows:dim ~cols:dim ~bm:16 ~bk:16
      ~sparsity
  in
  let b = Tensor.create Datatype.F32 [| dim; dim |] in
  Tensor.fill_random b rng ~scale:1.0;
  let cfg = Spmm_kernel.make_config ~m:dim ~n:dim ~k:dim ~bm:16 ~bk:16 () in
  let sp = Spmm_kernel.create cfg Spmm_kernel.default_spec in
  let bp = Spmm_kernel.pack_b cfg b in
  let c = Tensor.create Datatype.F32 [| dim; dim |] in
  Test.make ~name (Staged.stage (fun () -> Spmm_kernel.run sp ~a ~b:bp ~c))

let bert_layer_bench ~name =
  let rng = Prng.create 96 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let x = Tensor.create Datatype.F32 [| 32; Bert.tiny_config.Bert.hidden |] in
  Tensor.fill_random x rng ~scale:1.0;
  let layer = bert.Bert.encoder.(0) in
  Test.make ~name
    (Staged.stage (fun () -> ignore (Bert.encoder_layer bert layer x)))

let micro_tests () =
  [
    gemm_bench ~name:"gemm 256^3 f32" ~dtype:Datatype.F32 ~vnni_b:false 256 32;
    gemm_bench ~name:"gemm 256^3 bf16-vnni" ~dtype:Datatype.BF16 ~vnni_b:true
      256 32;
    conv_bench ~name:"conv 32x32x28^2 3x3" 28;
    spmm_bench ~name:"spmm 256^3 80% sparse" ~sparsity:0.8 256;
    spmm_bench ~name:"spmm 256^3 dense" ~sparsity:0.0 256;
    bert_layer_bench ~name:"bert-tiny encoder layer";
  ]

let run_micro () =
  Modelkit.section "Bechamel microbenchmarks (real kernels, this host)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-28s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    (micro_tests ())

(* The times of [fs] run in rounds, each function once a round, after
   one warm-up run of each: at least ten rounds and [secs] of them in
   all. [(rounds ~secs fs).(i).(r)] is the time of [fs.(i)] in round
   [r]. The functions take turns run by run, so a slow spell on the
   host lands on all of them instead of on one. *)
let rounds ~secs fs =
  Array.iter (fun f -> f ()) fs;
  let times = Array.map (fun _ -> []) fs in
  let t_start = Telemetry.Clock.now_s () in
  let rec go n =
    if n < 10 || Telemetry.Clock.now_s () -. t_start < secs then begin
      Array.iteri
        (fun i f ->
          let t0 = Telemetry.Clock.now_s () in
          f ();
          times.(i) <- (Telemetry.Clock.now_s () -. t0) :: times.(i))
        fs;
      go (n + 1)
    end
  in
  go 0;
  Array.map (fun l -> Array.of_list (List.rev l)) times

(* The fastest of a function's runs: a sub-millisecond kernel's time is
   then a stable floor that a band can gate. *)
let fastest = Array.fold_left Float.min Float.infinity

(* How much longer the runs [a] take than the runs [b] of the same
   rounds, in percent: the median of the rounds' ratios. The two runs of
   a round share the host's state, so a slow spell cancels out of their
   ratio; it need not cancel out of the ratio of two minima, which may
   come from different moments. *)
let overhead_pct a b =
  let r = Array.map2 ( /. ) a b in
  Array.sort Float.compare r;
  100.0 *. (r.(Array.length r / 2) -. 1.0)

(* ---- perfbench's set-up transforms (smoke-regress) ----

   Every layout transform perfbench's kernel cases run before their
   timed window, at its shapes: a 512^2 fill_random and BF16 cast, the
   512^3 GEMM's pack_a and VNNI pack_b, the 2x64x56x56 conv's pack_input
   and unpack_output, and the Block-SpMM's pack_b. Each is one strided
   copy; the entry records each one's fastest run, in seconds. *)

let run_pack_points () =
  let rng = Prng.create 99 in
  let dim = 512 in
  let a = Tensor.random Datatype.F32 [| dim; dim |] rng ~scale:1.0 in
  let gemm = Gemm.make_config ~m:dim ~n:dim ~k:dim () in
  let vnni =
    Gemm.make_config ~dtype:Datatype.BF16 ~vnni_b:true ~m:dim ~n:dim ~k:dim ()
  in
  let conv = Conv.make_config ~pad:1 ~n:2 ~c:64 ~k:64 ~h:56 ~w:56 ~r:3 ~s:3 () in
  let img = Tensor.random Datatype.F32 [| 2; 64; 56; 56 |] rng ~scale:1.0 in
  let out = Conv.alloc_output conv in
  let spmm = Spmm_kernel.make_config ~m:dim ~n:dim ~k:dim ~bm:16 ~bk:16 () in
  let points =
    [
      ("fill_random_s", fun () -> Tensor.fill_random a rng ~scale:1.0);
      ("cast_bf16_s", fun () -> ignore (Tensor.cast a Datatype.BF16));
      ("pack_a_s", fun () -> ignore (Gemm.pack_a gemm a));
      ("pack_b_vnni_s", fun () -> ignore (Gemm.pack_b vnni a));
      ("conv_pack_input_s", fun () -> ignore (Conv.pack_input conv img));
      ("conv_unpack_output_s", fun () -> ignore (Conv.unpack_output conv out));
      ("spmm_pack_b_s", fun () -> ignore (Spmm_kernel.pack_b spmm a));
    ]
  in
  let times = rounds ~secs:0.5 (Array.of_list (List.map snd points)) in
  let metrics = List.mapi (fun i (name, _) -> (name, fastest times.(i))) points in
  List.iter
    (fun (name, s) -> Printf.printf "  pack %-22s %8.3f ms\n%!" name (1e3 *. s))
    metrics;
  record_bench ~name:"pack"
    ~config:[ ("dim", string_of_int dim); ("conv", "2x64x56x56") ]
    ~metrics ()

(* ---- quick measured GEMM points (real timings, BENCH_gemm.json) ---- *)

let run_gemm_points () =
  Modelkit.section "measured GEMM points (this host)";
  (* an f32 GEMM of [dim]^3 in 32-blocks, its outer loops parallel over
     the default team size, or over [nthreads] pool threads *)
  let point (dim, nthreads) =
    let block = 32 and spec = "BCa" in
    let rng = Prng.create 99 in
    let cfg =
      Gemm.make_config ~bm:block ~bn:block ~bk:block ~dtype:Datatype.F32
        ~m:dim ~n:dim ~k:dim ()
    in
    let g = Gemm.create cfg spec in
    let a = Tensor.create Datatype.F32 [| dim; dim |] in
    let b = Tensor.create Datatype.F32 [| dim; dim |] in
    Tensor.fill_random a rng ~scale:1.0;
    Tensor.fill_random b rng ~scale:1.0;
    let ap = Gemm.pack_a cfg a and bp = Gemm.pack_b cfg b in
    let cp = Gemm.alloc_c cfg in
    let report best =
      let gflops = Gemm.flops cfg /. best /. 1e9 in
      let threads, team =
        match nthreads with
        | None -> ("", [])
        | Some n ->
          (* the pool is always on; the key stays because the smoke
             baseline matches entries by config *)
          ( Printf.sprintf " %d thr (pool)" n,
            [ ("nthreads", string_of_int n); ("pool", "on") ] )
      in
      Printf.printf "  gemm %4dx%4dx%4d f32 %-6s%s %8.3f ms  %8.2f GFLOPS\n%!"
        dim dim dim spec threads (1e3 *. best) gflops;
      record_bench ~name:"gemm"
        ~config:
          ([ ("m", string_of_int dim); ("n", string_of_int dim);
             ("k", string_of_int dim); ("block", string_of_int block);
             ("spec", spec); ("dtype", "f32") ]
          @ team)
        ~metrics:[ ("seconds", best); ("gflops", gflops) ] ()
    in
    ((fun () -> Gemm.run ?nthreads g ~a:ap ~b:bp ~c:cp), report)
  in
  (* perfbench's Block-SpMM case: 512^3, 16x16 blocks at 80% sparsity,
     the default config and spec on 2 pool threads; the rate counts only
     the stored blocks *)
  let spmm_point =
    let dim = 512 and block = 16 and sparsity = 0.8 and nthreads = 2 in
    let rng = Prng.create 99 in
    let a =
      Bcsc.random ~rng ~dtype:Datatype.F32 ~rows:dim ~cols:dim ~bm:block
        ~bk:block ~sparsity
    in
    let b = Tensor.create Datatype.F32 [| dim; dim |] in
    Tensor.fill_random b rng ~scale:1.0;
    let cfg =
      Spmm_kernel.make_config ~m:dim ~n:dim ~k:dim ~bm:block ~bk:block ()
    in
    let sp = Spmm_kernel.create cfg Spmm_kernel.default_spec in
    let bp = Spmm_kernel.pack_b cfg b in
    let c = Tensor.create Datatype.F32 [| dim; dim |] in
    let report best =
      let gflops = Spmm_kernel.effective_flops cfg ~a /. best /. 1e9 in
      Printf.printf
        "  spmm %4dx%4dx%4d f32 %.0f%% sparse %dx%d %d thr (pool) %8.3f ms  \
         %8.2f GFLOPS\n%!"
        dim dim dim (100.0 *. sparsity) block block nthreads (1e3 *. best)
        gflops;
      record_bench ~name:"spmm"
        ~config:
          [ ("m", string_of_int dim); ("n", string_of_int dim);
            ("k", string_of_int dim); ("block", string_of_int block);
            ("sparsity", Printf.sprintf "%g" sparsity); ("dtype", "f32");
            ("nthreads", string_of_int nthreads) ]
        ~metrics:[ ("gflops", gflops) ] ()
    in
    ((fun () -> Spmm_kernel.run ~nthreads sp ~a ~b:bp ~c), report)
  in
  let points =
    List.map point
      [ (128, None); (256, None); (128, Some 2); (256, Some 2); (512, Some 2) ]
    @ [ spmm_point ]
  in
  let times = rounds ~secs:1.0 (Array.of_list (List.map fst points)) in
  List.iteri (fun i (_, report) -> report (fastest times.(i))) points;
  run_pack_points ();
  (* the native kernel alone, one thread, once per clone this host can
     execute: 32^3 blocks accumulated into C, one a call or 16 (the
     512-deep calls of the 512^3 GEMM), the two taking turns *)
  let cfg = Brgemm.make_config ~m:32 ~n:32 ~k:32 () in
  let ker = Brgemm.compile cfg in
  let rng = Prng.create 99 in
  let blocks count =
    let t = Tensor.create Datatype.F32 [| count * 32; 32 |] in
    Tensor.fill_random t rng ~scale:1.0;
    Tensor.view_flat t ~off:0 ~rows:32 ~cols:32 ~ld:32
  in
  let a = blocks 1 and b = blocks 1 and c = blocks 1 in
  let a16 = blocks 16 and b16 = blocks 16 in
  let calls count = 100 / count in
  let exec isa count () =
    let a, b = if count = 1 then (a, b) else (a16, b16) in
    Brgemm.For_tests.with_isa isa (fun () ->
        for _ = 1 to calls count do
          Brgemm.exec_stride ker ~a ~b ~c ~stride_a:1024 ~stride_b:1024 ~count
        done)
  in
  (* A clone's turn runs 1, 16, 1 blocks a call and drops the first run:
     its vector units idle through the other clones' turns and run
     slowly for a while after, so whichever point ran first in a turn
     read low. *)
  let turn = [ 1; 16; 1 ] in
  let isas = Brgemm.For_tests.isas in
  let times =
    rounds ~secs:0.5
      (Array.of_list
         (List.concat_map (fun isa -> List.map (exec isa) turn) isas))
  in
  List.iteri
    (fun j isa ->
      List.iteri
        (fun i count ->
          if i > 0 then begin
            let best = fastest times.((j * List.length turn) + i) in
            let n = float (calls count) in
            let gflops = n *. Brgemm.flops cfg ~count /. best /. 1e9 in
            Printf.printf
              "  brgemm 32x32x32 x%-2d f32 %-8s 1 thr %8.3f us  %8.2f \
               GFLOPS\n%!"
              count isa (1e6 *. best /. n) gflops;
            record_bench ~name:"brgemm"
              ~config:
                [ ("m", "32"); ("n", "32"); ("k", "32");
                  ("count", string_of_int count); ("dtype", "f32");
                  ("isa", isa); ("nthreads", "1") ]
              ~metrics:[ ("gflops", gflops) ] ()
          end)
        turn)
    isas

(* ---- serving speed: Llm.tiny prefill and decode (smoke-regress) ----

   The model every serving path runs, at a fixed seed: a 128-token
   prefill into an empty cache and one decode step at context 32, on 1
   and 2 threads, the four taking turns; each time is its fastest run.
   decode_minor_words is what one decode step allocates on the calling
   domain (all of it on 1 thread; the team's workers are not counted on
   2). *)

let run_llm () =
  Modelkit.section "serving speed (Llm.tiny, this host)";
  let llm = Llm.create ~rng:(Prng.create 2024) Llm.tiny in
  let vocab = Llm.tiny.Llm.vocab in
  let prompt = Llm.embed llm (Array.init 128 (fun i -> ((7 * i) + 3) mod vocab)) in
  let past = Llm.embed llm (Array.init 32 (fun i -> ((5 * i) + 1) mod vocab)) in
  let next = Llm.embed llm [| 9 |] in
  let point nthreads =
    let pc = Llm.new_cache llm and dc = Llm.new_cache llm in
    ignore (Llm.extend ~nthreads llm dc past);
    let prefill () =
      Llm.reset_cache pc;
      ignore (Llm.extend ~nthreads llm pc prompt)
    in
    let decode () =
      ignore (Llm.extend ~nthreads llm dc next);
      Llm.truncate_cache dc 32
    in
    (nthreads, prefill, decode)
  in
  let points = List.map point [ 1; 2 ] in
  let times =
    rounds ~secs:0.5
      (Array.of_list (List.concat_map (fun (_, p, d) -> [ p; d ]) points))
  in
  List.iteri
    (fun i (nthreads, _, decode) ->
      let prefill_s = fastest times.(2 * i)
      and decode_s = fastest times.((2 * i) + 1) in
      let w0 = Gc.minor_words () in
      decode ();
      let words = Gc.minor_words () -. w0 in
      Printf.printf
        "  llm tiny %d thr: prefill 128 %8.3f ms  decode @32 %8.1f us  %8.0f \
         minor words/decode\n%!"
        nthreads (1e3 *. prefill_s) (1e6 *. decode_s) words;
      record_bench ~name:"llm"
        ~config:[ ("model", "tiny"); ("nthreads", string_of_int nthreads) ]
        ~metrics:
          [ ("prefill_s", prefill_s); ("decode_s", decode_s);
            ("decode_minor_words", words) ]
        ())
    points

(* ---- dispatch-overhead microbenchmark (persistent pool vs spawn) ----

   Times Team.run (pool) against Team.run_spawn (the fresh
   threads-per-call baseline) over identical bodies: an empty region
   (pure dispatch+join cost) and a small-shape BRGEMM per thread, the
   decode-sized work unit where spawn overhead dominated. Records pool
   telemetry counters alongside and fails loudly if the pool never
   reused a worker — that would mean the persistent engine silently fell
   back to spawning. *)

let run_dispatch () =
  Modelkit.section "Nest.exec dispatch overhead: pool vs spawn-per-call";
  let time_per_exec runner ~nthreads body =
    for _ = 1 to 30 do
      runner ~nthreads body
    done;
    let t0 = Telemetry.Clock.now_s () in
    let iters = ref 0 in
    while Telemetry.Clock.now_s () -. t0 < 0.25 do
      for _ = 1 to 10 do
        runner ~nthreads body
      done;
      iters := !iters + 10
    done;
    1e9 *. (Telemetry.Clock.now_s () -. t0) /. float_of_int !iters
  in
  let gemm_body =
    (* per-thread 32x32x32 BRGEMM on private outputs *)
    let rng = Prng.create 95 in
    let n = 8 in
    let ker =
      Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:32 ~n:32 ~k:32 ())
    in
    let mk () =
      let t = Tensor.create Datatype.F32 [| 32; 32 |] in
      Tensor.fill_random t rng ~scale:1.0;
      Tensor.view2d t
    in
    let a = Array.init n (fun _ -> mk ())
    and b = Array.init n (fun _ -> mk ())
    and c = Array.init n (fun _ -> mk ()) in
    fun (ctx : Team.ctx) ->
      let t = ctx.Team.tid in
      Brgemm.exec ker ~a:a.(t) ~b:b.(t) ~c:c.(t)
  in
  let cases =
    [ ("empty", 4, (fun (_ : Team.ctx) -> ()));
      ("gemm32", 8, gemm_body) ]
  in
  List.iter
    (fun (bodyname, nthreads, body) ->
      let pool_ns = time_per_exec Team.run ~nthreads body in
      let spawn_ns = time_per_exec Team.run_spawn ~nthreads body in
      (* dispatch overhead = region time minus the same body executed
         inline with no threading at all (run_sequential covers the
         identical tid range on the calling thread) *)
      let seq_ns = time_per_exec Team.run_sequential ~nthreads body in
      (* overheads smaller than ~1% of the body are below timing noise;
         clamp so the reported ratio stays meaningful *)
      let noise = 1.0 +. (0.01 *. seq_ns) in
      let pool_ov = Float.max noise (pool_ns -. seq_ns) in
      let spawn_ov = Float.max noise (spawn_ns -. seq_ns) in
      let speedup = spawn_ov /. pool_ov in
      Printf.printf
        "  %-7s n=%d  pool %9.0f ns/exec   spawn %9.0f ns/exec   body %9.0f \
         ns  overhead %5.1fx\n\
         %!"
        bodyname nthreads pool_ns spawn_ns seq_ns speedup;
      record_bench ~name:"dispatch"
        ~config:
          [ ("body", bodyname); ("nthreads", string_of_int nthreads);
            ("baseline", "spawn-per-call") ]
        ~metrics:
          [ ("pool_ns_per_exec", pool_ns); ("spawn_ns_per_exec", spawn_ns);
            ("body_ns_per_exec", seq_ns);
            ("pool_overhead_ns", pool_ov); ("spawn_overhead_ns", spawn_ov);
            ("speedup", speedup) ] ())
    cases;
  let cval = Telemetry.Counter.value in
  let reuse = cval Telemetry.Registry.pool_reuse_name in
  record_bench ~name:"pool-counters" ~config:[]
    ~metrics:
      [ ("dispatches", float_of_int (cval Telemetry.Registry.pool_dispatches_name));
        ("worker_reuse", float_of_int reuse);
        ("workers_spawned",
         float_of_int (cval Telemetry.Registry.pool_workers_name));
        ("spin_wakeups", float_of_int (cval Telemetry.Registry.pool_spin_name));
        ("park_wakeups", float_of_int (cval Telemetry.Registry.pool_park_name))
      ]
    ();
  Printf.printf "  pool: %d workers, %d dispatches, %d reuses\n%!"
    (Team.pool_size ())
    (cval Telemetry.Registry.pool_dispatches_name)
    reuse;
  if reuse = 0 then begin
    Printf.eprintf "dispatch bench: no worker was ever reused\n";
    exit 1
  end

(* ---- flight-recorder overhead (recorder) ----

   Two costs matter for an always-on recorder: the per-event emit cost
   (ns/event, and the residual cost of the disabled check), and the
   end-to-end impact on real parallel work (the pooled 2-thread GEMM
   point, recorder on vs off). Both are recorded in the bench JSON so
   the overhead budget in DESIGN.md stays an asserted number, not a
   hope. *)

let run_recorder () =
  Modelkit.section "flight-recorder overhead: emit cost and pooled-GEMM impact";
  let was_enabled = Telemetry.Recorder.enabled () in
  let lbl = Telemetry.Recorder.intern "bench.recorder" in
  (* one pass of [iters] emits; the warm-up run of each creates the
     calling thread's rings, so the timed passes see only the
     steady-state path *)
  let iters = 10_000 in
  let pass kind () =
    for i = 1 to iters do
      Telemetry.Recorder.emit kind ~label:lbl ~a:i ~b:0
    done
  in
  let ns_per_event t = 1e9 *. t /. float_of_int iters in
  (* the gate below compares the dense and trace numbers, so their
     passes take turns *)
  Telemetry.Recorder.set_enabled true;
  let t =
    rounds ~secs:0.5
      [| pass Telemetry.Recorder.Mark; pass Telemetry.Recorder.Trace_decode |]
  in
  let emit_on_ns = ns_per_event (fastest t.(0))
  and trace_emit_ns = ns_per_event (fastest t.(1)) in
  Telemetry.Recorder.set_enabled false;
  let emit_off_ns =
    let t = rounds ~secs:0.1 [| pass Telemetry.Recorder.Mark |] in
    ns_per_event (fastest t.(0))
  in
  let events_per_s = 1e9 /. emit_on_ns in
  Printf.printf
    "  emit: %6.1f ns/event enabled (%.1f Mevents/s), %6.2f ns/event \
     disabled\n%!"
    emit_on_ns (events_per_s /. 1e6) emit_off_ns;
  (* trace-kind emits route to the per-thread trace lane: same write
     path plus one compare, so tracing a request may add at most 10% per
     event over the dense lane — a hard gate, not a report line *)
  let trace_overhead_pct = overhead_pct t.(1) t.(0) in
  Printf.printf
    "  trace emit: %6.1f ns/event (%+.1f%% vs dense lane)\n%!"
    trace_emit_ns trace_overhead_pct;
  if trace_overhead_pct > 10.0 then begin
    Printf.eprintf
      "FAIL: trace-lane emit adds %.1f%% per event (budget: 10%%)\n"
      trace_overhead_pct;
    exit 1
  end;
  let dim = 128 and block = 32 and nthreads = 2 in
  let rng = Prng.create 99 in
  let cfg =
    Gemm.make_config ~bm:block ~bn:block ~bk:block ~dtype:Datatype.F32 ~m:dim
      ~n:dim ~k:dim ()
  in
  let g = Gemm.create cfg "BCa" in
  let a = Tensor.create Datatype.F32 [| dim; dim |] in
  let b = Tensor.create Datatype.F32 [| dim; dim |] in
  Tensor.fill_random a rng ~scale:1.0;
  Tensor.fill_random b rng ~scale:1.0;
  let ap = Gemm.pack_a cfg a and bp = Gemm.pack_b cfg b in
  let cp = Gemm.alloc_c cfg in
  let run enabled () =
    Telemetry.Recorder.set_enabled enabled;
    Gemm.run ~nthreads g ~a:ap ~b:bp ~c:cp
  in
  let t = rounds ~secs:0.5 [| run true; run false |] in
  let gemm_on_s = fastest t.(0) and gemm_off_s = fastest t.(1) in
  Telemetry.Recorder.set_enabled was_enabled;
  let gemm_overhead_pct = overhead_pct t.(0) t.(1) in
  Printf.printf
    "  gemm 128^3 BCa 2 thr: %8.3f ms on, %8.3f ms off (%+.1f%%)\n%!"
    (1e3 *. gemm_on_s) (1e3 *. gemm_off_s) gemm_overhead_pct;
  record_bench ~name:"recorder"
    ~config:
      [ ("gemm", "128x128x128 f32 BCa nthreads=2");
        ("ring_capacity", "4096") ]
    ~metrics:
      [ ("emit_ns_enabled", emit_on_ns); ("emit_ns_disabled", emit_off_ns);
        ("trace_emit_ns", trace_emit_ns);
        ("trace_overhead_pct", trace_overhead_pct);
        ("events_per_s", events_per_s); ("gemm_s_enabled", gemm_on_s);
        ("gemm_s_disabled", gemm_off_s);
        ("gemm_overhead_pct", gemm_overhead_pct) ]
    ()

(* ---- serving benchmark (--serve): continuous batching over Llm.tiny ----

   The load runs through the cluster tier (Router + per-replica
   schedulers; a lone scheduler is --replicas 1, the default); the bench
   entry carries the fleet rollup in "metrics" and one per-replica block
   each under "replicas". *)

let summary_metrics (s : Serve.Metrics.summary) =
  [ ("submitted", float_of_int s.Serve.Metrics.submitted);
    ("completed", float_of_int s.Serve.Metrics.completed);
    ("rejected", float_of_int s.Serve.Metrics.rejected);
    ("goodput", float_of_int s.Serve.Metrics.goodput);
    ("tokens", float_of_int s.Serve.Metrics.tokens);
    ("tokens_per_s", s.Serve.Metrics.tokens_per_s);
    ("ttft_p50_ms", s.Serve.Metrics.ttft_ms.Serve.Metrics.p50);
    ("ttft_p95_ms", s.Serve.Metrics.ttft_ms.Serve.Metrics.p95);
    ("ttft_p99_ms", s.Serve.Metrics.ttft_ms.Serve.Metrics.p99);
    ("tpot_p50_ms", s.Serve.Metrics.tpot_ms.Serve.Metrics.p50);
    ("tpot_p95_ms", s.Serve.Metrics.tpot_ms.Serve.Metrics.p95);
    ("tpot_p99_ms", s.Serve.Metrics.tpot_ms.Serve.Metrics.p99) ]

(* kv.pages.* / serve.spec.* counter values for serve bench entries
   (schema parlooper-bench/3); zeros in contiguous / non-speculative
   runs, so the keys cost nothing downstream. *)
let kv_spec_metrics () =
  let c n = float_of_int (Telemetry.Counter.value n) in
  [ ("kv_pages_allocated", c Kv.Block_manager.pages_allocated_name);
    ("kv_pages_freed", c Kv.Block_manager.pages_freed_name);
    ("kv_cow_copies", c Kv.Block_manager.cow_copies_name);
    ("kv_prefix_hits", c Kv.Block_manager.prefix_hits_name);
    ("spec_proposed", c Serve.Metrics.spec_proposed_name);
    ("spec_accepted", c Serve.Metrics.spec_accepted_name);
    ("spec_rejected", c Serve.Metrics.spec_rejected_name) ]

(* tuner.cache.* counter values for serve bench entries (schema
   parlooper-bench/4, additive); zeros without --online-tune *)
let tuner_cache_metrics () =
  let c n = float_of_int (Telemetry.Counter.value n) in
  [ ("tuner_cache_hits", c Telemetry.Registry.tuner_cache_hits_name);
    ("tuner_cache_misses", c Telemetry.Registry.tuner_cache_misses_name);
    ("tuner_cache_swaps", c Telemetry.Registry.tuner_cache_swaps_name);
    ("tuner_cache_rejected", c Telemetry.Registry.tuner_cache_rejected_name);
    ("tuner_cache_tunes", c Telemetry.Registry.tuner_cache_tunes_name) ]

let paged_config_kvs ~paged ~block_size ~num_blocks ~spec_k ~draft_layers
    ~sys_prompt =
  [ ("paged", string_of_bool paged);
    ("block_size", string_of_int block_size);
    ("num_blocks", string_of_int num_blocks);
    ("spec_k", string_of_int spec_k);
    ("draft_layers", string_of_int draft_layers);
    ("sys_prompt", string_of_int sys_prompt) ]

let run_serve ~rate ~duration ~replicas ~shards ~disaggregate ~placement
    ~paged ~block_size ~num_blocks ~spec_k ~draft_layers ~sys_prompt
    ~online_tune () =
  Modelkit.section
    (Printf.sprintf
       "serving: continuous batching over %s on %d replica%s x %d shard%s%s \
        (%s), Poisson %.0f req/s for %.1fs"
       Llm.tiny.Llm.name replicas
       (if replicas = 1 then "" else "s")
       shards
       (if shards = 1 then "" else "s")
       (if disaggregate then " + prefill tier" else "")
       (Cluster.Router.placement_name placement) rate duration);
  if paged then
    Printf.printf "  paged KV: %d blocks x %d tokens, prefix sharing on\n%!"
      num_blocks block_size;
  if spec_k > 0 then
    Printf.printf "  speculative decoding: k=%d, %d draft layer%s\n%!" spec_k
      draft_layers
      (if draft_layers = 1 then "" else "s");
  let rng = Prng.create 7 in
  let llm = Llm.create ~rng ~block:8 Llm.tiny in
  if online_tune then
    Printf.printf "  online tuning: per-shape spec cache + background tuner on\n%!";
  let scfg =
    { Serve.Scheduler.default_config with
      Serve.Scheduler.paged; block_size; num_blocks; spec_k; draft_layers;
      online_tune }
  in
  let load =
    { Serve.Load_gen.default with
      Serve.Load_gen.rate_hz = rate;
      duration_s = duration;
      deadline_s = 0.25;
      sys_prompt_len = sys_prompt }
  in
  let trace = Serve.Load_gen.generate load ~vocab:Llm.tiny.Llm.vocab in
  Printf.printf "  trace: %d arrivals, deadline %.0f ms, prompts %s, \
                 new tokens %s\n%!"
    (List.length trace)
    (1e3 *. load.Serve.Load_gen.deadline_s)
    (Serve.Load_gen.dist_to_string load.Serve.Load_gen.prompt_len)
    (Serve.Load_gen.dist_to_string load.Serve.Load_gen.new_tokens);
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas; shards; disaggregate; placement;
      scheduler = scfg }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e ->
      Printf.eprintf "serve: cannot build cluster: %s\n" e;
      exit 1
  in
  let o = Cluster.Driver.run router trace in
  if online_tune then begin
    (* let queued background tunes land so the recorded tuner.cache.*
       counters are final, then report and stop the tuning domain *)
    ignore (Spec_cache.drain ~timeout_s:10.0);
    let s = Spec_cache.stats () in
    Printf.printf
      "  spec cache: %d hits, %d misses, %d hot-swaps, %d rejected, %d \
       tunes\n%!"
      s.Spec_cache.hits s.Spec_cache.misses s.Spec_cache.swaps
      s.Spec_cache.rejected s.Spec_cache.tunes;
    Spec_cache.disable ()
  end;
  Printf.printf "  fleet (merged across %d replica histograms):\n"
    (List.length o.Cluster.Driver.per_replica);
  Serve.Metrics.print o.Cluster.Driver.summary;
  List.iter
    (fun (i, s) ->
      Printf.printf "  replica %d%s: %s\n" i
        (if i >= replicas then " (prefill)" else "")
        (Serve.Metrics.summary_to_string s))
    o.Cluster.Driver.per_replica;
  List.iteri
    (fun i pool ->
      match Serve.Kv_pool.manager pool with
      | Some m ->
        Printf.printf "  arena %d after drain: %d/%d blocks free\n%!" i
          (Kv.Block_manager.free_blocks m)
          (Kv.Block_manager.num_blocks m)
      | None -> ())
    (Cluster.Router.pools router);
  let c n = float_of_int (Telemetry.Counter.value n) in
  record_bench ~name:"serve"
    ~config:
      ([ ("model", Llm.tiny.Llm.name); ("rate_hz", Printf.sprintf "%g" rate);
         ("duration_s", Printf.sprintf "%g" duration);
         ("deadline_ms",
          Printf.sprintf "%g" (1e3 *. load.Serve.Load_gen.deadline_s));
         ("policy", Serve.Scheduler.policy_name scfg.Serve.Scheduler.policy);
         ("max_batch", string_of_int scfg.Serve.Scheduler.max_batch);
         ("replicas", string_of_int replicas);
         ("shards", string_of_int shards);
         ("disaggregate", string_of_bool disaggregate);
         ("placement", Cluster.Router.placement_name placement) ]
      @ paged_config_kvs ~paged ~block_size ~num_blocks ~spec_k
          ~draft_layers ~sys_prompt
      @ [ ("online_tune", string_of_bool online_tune) ])
    ~metrics:
      (summary_metrics o.Cluster.Driver.summary
      @ [ ("slo_ttft_breaches", c Serve.Metrics.slo_ttft_breaches_name);
          ("slo_deadline_breaches", c Serve.Metrics.slo_deadline_breaches_name)
        ]
      @ kv_spec_metrics ()
      @ tuner_cache_metrics ()
      @ [ ("routed", c Cluster.Router.routed_name);
          ("rerouted", c Cluster.Router.rerouted_name);
          ("adopted", c Cluster.Router.adopted_name) ])
    ~replicas:
      (List.map
         (fun (i, s) -> (i, summary_metrics s))
         o.Cluster.Driver.per_replica)
    ()

(* ---- chaos harness (--chaos): seeded fault injection over serving ----

   Runs Cluster.Chaos over a virtual-clock trace. A lone scheduler is
   the 1-replica fleet (the default): the single-replica preset covers
   every fault-site class a scheduler reaches, and the entry is recorded
   as "chaos". With --replicas N (or --shards / --disaggregate /
   --hard-kill, which need at least 2) the fleet runs with a mid-run
   replica quarantine — or, with --hard-kill, a mid-run hard kill whose
   in-flight sessions must live-migrate — and the entry, recorded as
   "cluster-chaos", carries the router conservation and migration
   counters and the fleet SLO-burn gauges. Exits non-zero if any
   invariant is violated, if no fault actually fired (a plan that
   injects nothing would make the "survived chaos" claim vacuous), or if
   a hard kill completed no migration (the run then proved nothing
   about failover). *)

let chaos_failed = ref false

let run_chaos ~seed ~requests ~replicas ~shards ~disaggregate ~hard_kill
    ~paged ~block_size ~num_blocks ~spec_k ~draft_layers ~sys_prompt () =
  let solo = replicas = 1 in
  let base =
    if hard_kill then Cluster.Chaos.hard_kill
    else if solo then Cluster.Chaos.solo
    else Cluster.Chaos.default
  in
  let disruption =
    if hard_kill then
      Printf.sprintf ", replica %d hard-killed mid-run"
        base.Cluster.Chaos.hard_kill_replica
    else if solo then ""
    else
      Printf.sprintf ", replica %d quarantined mid-run"
        base.Cluster.Chaos.quarantine_replica
  in
  Modelkit.section
    (Printf.sprintf
       "chaos: %d-replica fleet under seeded fault injection (seed %d, %d \
        requests%s%s%s%s%s)"
       replicas seed requests
       (if shards > 1 then Printf.sprintf ", %d shards" shards else "")
       (if disaggregate then ", disaggregated" else "")
       (if paged then ", paged KV" else "")
       (if spec_k > 0 then Printf.sprintf ", spec k=%d" spec_k else "")
       disruption);
  let scheduler =
    { base.Cluster.Chaos.scheduler with
      Serve.Scheduler.paged; block_size; num_blocks; spec_k; draft_layers }
  in
  let config =
    { base with
      Cluster.Chaos.seed; requests; replicas; shards; disaggregate;
      scheduler; shared_prefix = sys_prompt }
  in
  let plan =
    match config.Cluster.Chaos.plan with
    | Some p -> p
    | None -> Cluster.Chaos.default_plan ~replicas seed
  in
  Printf.printf "  plan: %s\n%!" (Fault.plan_to_string plan);
  let r = Cluster.Chaos.run ~config () in
  print_string (Cluster.Chaos.report_to_string r);
  let f = float_of_int in
  (* --compare keys entries by name and config: the lone-scheduler entry
     keeps the "chaos" name and config keys of the committed baseline *)
  let fleet_kvs =
    if solo then []
    else
      [ ("replicas", string_of_int replicas);
        ("shards", string_of_int shards);
        ("disaggregate", string_of_bool disaggregate);
        ("quarantine_replica",
         string_of_int config.Cluster.Chaos.quarantine_replica);
        ("hard_kill", string_of_bool hard_kill);
        ("hard_kill_replica",
         string_of_int config.Cluster.Chaos.hard_kill_replica) ]
  in
  record_bench
    ~name:(if solo then "chaos" else "cluster-chaos")
    ~config:
      ([ ("seed", string_of_int seed); ("requests", string_of_int requests) ]
      @ fleet_kvs
      @ [ ("plan", Fault.plan_to_string plan) ]
      @ paged_config_kvs ~paged ~block_size ~num_blocks ~spec_k ~draft_layers
          ~sys_prompt)
    ~metrics:
      [ ("steps", f r.Cluster.Chaos.steps);
        ("submitted", f r.Cluster.Chaos.submitted);
        ("finished", f r.Cluster.Chaos.finished);
        ("rejected", f r.Cluster.Chaos.rejected);
        ("cancelled", f r.Cluster.Chaos.cancelled);
        ("failed", f r.Cluster.Chaos.failed);
        ("routed", f r.Cluster.Chaos.routed);
        ("rerouted", f r.Cluster.Chaos.rerouted);
        ("resubmitted", f r.Cluster.Chaos.resubmitted);
        ("adopted", f r.Cluster.Chaos.adopted);
        ("route_faults", f r.Cluster.Chaos.route_faults);
        ("migrations_started", f r.Cluster.Chaos.migrations_started);
        ("migrations_completed", f r.Cluster.Chaos.migrations_completed);
        ("migrations_failed", f r.Cluster.Chaos.migrations_failed);
        ("compared", f r.Cluster.Chaos.compared);
        ("mismatched", f r.Cluster.Chaos.mismatched);
        ("fault_injected", f r.Cluster.Chaos.injected);
        ("fault_retries", f r.Cluster.Chaos.retries);
        ("fault_shed", f r.Cluster.Chaos.shed);
        ("kv_denied", f r.Cluster.Chaos.denied);
        ("watchdog_trips", f r.Cluster.Chaos.trips);
        ("pool_quarantined", f r.Cluster.Chaos.quarantined);
        ("numeric_errors", f r.Cluster.Chaos.numeric_errors);
        ("kv_pages_allocated", f r.Cluster.Chaos.pages_allocated);
        ("kv_pages_freed", f r.Cluster.Chaos.pages_freed);
        ("kv_cow_copies", f r.Cluster.Chaos.cow_copies);
        ("kv_prefix_hits", f r.Cluster.Chaos.prefix_hits);
        ("double_released", f r.Cluster.Chaos.double_released);
        ("fleet_slo_ttft_breaches", f r.Cluster.Chaos.fleet_slo_ttft);
        ("fleet_slo_deadline_breaches", f r.Cluster.Chaos.fleet_slo_deadline);
        ("traces_checked", f r.Cluster.Chaos.traces_checked);
        ("migrated_traced", f r.Cluster.Chaos.migrated_traced);
        ("violations", f (List.length r.Cluster.Chaos.violations)) ]
    ();
  if r.Cluster.Chaos.violations <> [] then begin
    Printf.eprintf "chaos: %d invariant violation(s)\n"
      (List.length r.Cluster.Chaos.violations);
    List.iter (Printf.eprintf "  - %s\n") r.Cluster.Chaos.violations;
    chaos_failed := true
  end;
  if r.Cluster.Chaos.injected = 0 then begin
    Printf.eprintf "chaos: plan injected no faults — run proves nothing\n";
    chaos_failed := true
  end;
  if hard_kill && r.Cluster.Chaos.migrations_completed = 0 then begin
    Printf.eprintf "chaos: hard kill completed no migrations — run proves \
                    nothing about failover\n";
    chaos_failed := true
  end

(* ---- paged-width experiment ("paged") ----

   The capacity claim behind the paged arena, measured: at a fixed KV
   row budget, requests sharing a long system prompt are admitted until
   the first [`Denied], once with contiguous per-request buffers (each
   live request reserves its whole footprint — best-case provisioning,
   no fragmentation modelled) and once over the paged arena with the
   prefix trie on (shared prompt blocks are physically deduplicated).
   Real prefills run through [Llm.extend] so the trie, COW boundaries
   and block refcounts are exercised, not simulated. The process fails
   unless paged sustains strictly more concurrent requests and the trie
   recorded at least one hit. *)

let run_paged_width () =
  let block_size = 16 and num_blocks = 40 in
  let arena_rows = block_size * num_blocks in
  let shared = 3 * block_size in  (* a 3-block shared system prompt *)
  let plen = shared + 8 and new_tokens = 8 in
  let total_rows = plen + new_tokens - 1 in
  Modelkit.section
    (Printf.sprintf
       "paged KV: max concurrent width at a fixed %d-row arena, contiguous \
        vs paged+prefix"
       arena_rows);
  let rng = Prng.create 7 in
  let llm = Llm.create ~rng ~block:8 Llm.tiny in
  let vocab = Llm.tiny.Llm.vocab in
  let prompt_of i =
    Array.init plen (fun j ->
        if j < shared then (7 * j + 3) mod vocab
        else (131 * (i + 1) + j) mod vocab)
  in
  (* admit until the first denial, keeping every admitted cache live (the
     concurrent width is the point); prefill really runs so prefix hits
     attach shared blocks and suffixes append fresh ones *)
  let admit_loop pool =
    let live = ref [] and width = ref 0 and stop = ref false in
    while not !stop && !width <= 4 * num_blocks do
      let prompt = prompt_of !width in
      match Serve.Kv_pool.acquire_for pool ~prompt ~total_rows () with
      | `Denied -> stop := true
      | `Cache (cache, matched) ->
        let suffix = Array.sub prompt matched (plen - matched) in
        ignore (Llm.extend llm cache (Llm.embed llm suffix));
        Serve.Kv_pool.register pool ~prompt cache;
        live := cache :: !live;
        incr width
    done;
    let w = !width in
    List.iter (Serve.Kv_pool.release pool) !live;
    w
  in
  (* contiguous provisioning at the same row budget: every live request
     reserves [total_rows] dedicated rows, nothing can be shared *)
  let contig_width =
    admit_loop
      (Serve.Kv_pool.create ~init_cap:total_rows
         ~max_live:(arena_rows / total_rows) llm)
  in
  let hits0 = Telemetry.Counter.value Kv.Block_manager.prefix_hits_name in
  let paged_width =
    admit_loop
      (Serve.Kv_pool.create
         ~policy:
           (Serve.Kv_pool.Paged { block_size; num_blocks; prefix = true })
         llm)
  in
  let hits =
    Telemetry.Counter.value Kv.Block_manager.prefix_hits_name - hits0
  in
  Printf.printf
    "  arena: %d blocks x %d tokens; request: %d prompt (%d shared) + %d \
     new tokens\n"
    num_blocks block_size plen shared new_tokens;
  Printf.printf "  contiguous:   %d concurrent before first Denied\n"
    contig_width;
  Printf.printf
    "  paged+prefix: %d concurrent before first Denied (%d prefix hits)\n%!"
    paged_width hits;
  let f = float_of_int in
  record_bench ~name:"paged-width"
    ~config:
      [ ("model", Llm.tiny.Llm.name);
        ("block_size", string_of_int block_size);
        ("num_blocks", string_of_int num_blocks);
        ("prompt_len", string_of_int plen);
        ("shared_prefix", string_of_int shared);
        ("new_tokens", string_of_int new_tokens) ]
    ~metrics:
      [ ("arena_rows", f arena_rows); ("contiguous_width", f contig_width);
        ("paged_width", f paged_width); ("kv_prefix_hits", f hits) ]
    ();
  if paged_width <= contig_width then begin
    Printf.eprintf
      "paged: width %d is not strictly above contiguous width %d at the \
       same arena\n"
      paged_width contig_width;
    chaos_failed := true
  end;
  if hits = 0 then begin
    Printf.eprintf
      "paged: prefix trie recorded no hits — sharing never happened\n";
    chaos_failed := true
  end

(* ---- tuner benchmark (tune): exhaustive vs model-guided search ----

   Two seed GEMM shapes; every strategy scores candidates with the same
   §II-E model on a fixed platform (SPR, 16 threads), so results are
   machine-independent and deterministic. The process fails unless the
   beam search lands within 2% of the exhaustive best while scoring
   under 10% of the space — the headline claim for replacing §II-D
   enumeration with model-guided search. *)

let run_tune () =
  let platform = Platform.spr and nthreads = 16 in
  Modelkit.section
    (Printf.sprintf
       "tuner: exhaustive vs model-guided search (modeled on %s, %d threads)"
       platform.Platform.name nthreads);
  (* k_step = 1: the K loop keeps its iterations in the search space *)
  let shapes =
    [ ("128x128x128/b32", Gemm.make_config ~bm:32 ~bn:32 ~bk:32 ~k_step:1
         ~m:128 ~n:128 ~k:128 ());
      ("512x128x256/b32", Gemm.make_config ~bm:32 ~bn:32 ~bk:32 ~k_step:1
         ~m:512 ~n:128 ~k:256 ()) ]
  in
  let f = float_of_int in
  List.iter
    (fun (shape, cfg) ->
      (* ground truth: the full §II-D space, uncapped *)
      let ex =
        Autotune.tune_gemm ~max_candidates:100_000
          (Autotune.Modeled { platform; nthreads })
          cfg
      in
      let ex_best =
        match ex.Autotune.ranked with
        | e :: _ -> e.Autotune.gflops
        | [] -> 0.0
      in
      let space = ex.Autotune.evaluated + ex.Autotune.skipped in
      record_bench ~name:"tune"
        ~config:[ ("shape", shape); ("strategy", "exhaustive") ]
        ~metrics:
          [ ("evaluated", f ex.Autotune.evaluated);
            ("space", f space);
            ("best_gflops", ex_best);
            ("tuning_seconds", ex.Autotune.tuning_seconds) ]
        ();
      Printf.printf "  %-16s exhaustive: best %7.0f GFLOPS, %d candidates, \
                     %.2fs\n%!"
        shape ex_best ex.Autotune.evaluated ex.Autotune.tuning_seconds;
      (* model-guided strategies under a <10%-of-space budget *)
      let budget = max 8 (space / 12) in
      List.iter
        (fun strategy ->
          let r =
            Search.search ~strategy ~max_evals:budget ~platform ~nthreads cfg
          in
          let best =
            match r.Search.ranked with
            | e :: _ -> e.Autotune.gflops
            | [] -> 0.0
          in
          let frac = f r.Search.evaluated /. f (max 1 r.Search.space) in
          record_bench ~name:"tune"
            ~config:
              [ ("shape", shape);
                ("strategy", Search.strategy_name strategy) ]
            ~metrics:
              [ ("evaluated", f r.Search.evaluated);
                ("space", f r.Search.space);
                ("space_fraction", frac);
                ("best_gflops", best);
                ("tuning_seconds", r.Search.tuning_seconds) ]
            ();
          Printf.printf
            "  %-16s %-10s: best %7.0f GFLOPS (%5.1f%% of exhaustive), %d \
             candidates (%.1f%% of space), %.2fs\n%!"
            shape
            (Search.strategy_name strategy)
            best
            (100.0 *. best /. ex_best)
            r.Search.evaluated (100.0 *. frac) r.Search.tuning_seconds;
          if strategy = Search.default_strategy then begin
            if best < 0.98 *. ex_best then begin
              Printf.eprintf
                "tune: %s beam best %.0f GFLOPS is below 98%% of exhaustive \
                 best %.0f\n"
                shape best ex_best;
              chaos_failed := true
            end;
            if f r.Search.evaluated >= 0.10 *. f r.Search.space then begin
              Printf.eprintf
                "tune: %s beam scored %d of %d candidates — not under 10%% \
                 of the space\n"
                shape r.Search.evaluated r.Search.space;
              chaos_failed := true
            end
          end)
        [ Search.default_strategy;
          Search.Greedy { max_steps = 32 };
          Search.Bandit { epsilon = 0.3; rounds = 64 } ])
    shapes

(* ---- experiment registry ---- *)

let experiments =
  [
    ("fig2", Fig2.run);
    ("fig3", Fig3.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("tables", Tables.run);
    ("ablations", Ablations.run);
    ("micro", run_micro);
    ("gemm", run_gemm_points);
    ("llm", run_llm);
    ("dispatch", run_dispatch);
    ("recorder", run_recorder);
    ("paged", run_paged_width);
    ("tune", run_tune);
  ]

let run_all () =
  List.iter
    (fun (name, f) ->
      let t0 = Telemetry.Clock.now_s () in
      f ();
      Printf.printf "[%s completed in %.1fs]\n%!" name
        (Telemetry.Clock.now_s () -. t0))
    experiments

let usage () =
  Printf.eprintf
    "usage: main.exe [EXPERIMENT...] [--serve] [--serve-rate HZ]\n\
    \       [--serve-duration S] [--chaos] [--chaos-seed N]\n\
    \       [--chaos-requests N] [--replicas N] [--shards M]\n\
    \       [--disaggregate] [--hard-kill] [--placement rr|jsq|deadline]\n\
    \       [--paged] [--block-size N] [--num-blocks N]\n\
    \       [--spec-decode K] [--draft-layers N] [--sys-prompt N]\n\
    \       [--online-tune] [--json FILE] [--compare BASELINE.json]\n\
    \       [--telemetry]\n\
     experiments: %s\n"
    (String.concat ", " (List.map fst experiments));
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let telemetry = ref false in
  let serve = ref false in
  let serve_rate = ref 20.0 in
  let serve_duration = ref 5.0 in
  let chaos = ref false in
  let chaos_seed = ref 42 in
  let chaos_requests = ref 24 in
  let replicas = ref 1 in
  let shards = ref 1 in
  let disaggregate = ref false in
  let hard_kill = ref false in
  let placement = ref Cluster.Router.Round_robin in
  let paged = ref false in
  let block_size = ref 16 in
  let num_blocks = ref 64 in
  let spec_decode = ref 0 in
  let draft_layers = ref 1 in
  let sys_prompt = ref 0 in
  let online_tune = ref false in
  let json_path = ref None in
  let compare_path = ref None in
  let names = ref [] in
  let int_arg name rest =
    match rest with
    | v :: rest -> (
      match int_of_string_opt v with
      | Some i when i > 0 -> (i, rest)
      | _ ->
        Printf.eprintf "%s expects a positive integer, got %S\n" name v;
        exit 1)
    | [] ->
      Printf.eprintf "%s expects a value\n" name;
      exit 1
  in
  let float_arg name rest =
    match rest with
    | v :: rest -> (
      match float_of_string_opt v with
      | Some f when f > 0.0 -> (f, rest)
      | _ ->
        Printf.eprintf "%s expects a positive number, got %S\n" name v;
        exit 1)
    | [] ->
      Printf.eprintf "%s expects a value\n" name;
      exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--telemetry" :: rest ->
      telemetry := true;
      parse rest
    | "--serve" :: rest ->
      serve := true;
      parse rest
    | "--serve-rate" :: rest ->
      let v, rest = float_arg "--serve-rate" rest in
      serve_rate := v;
      parse rest
    | "--serve-duration" :: rest ->
      let v, rest = float_arg "--serve-duration" rest in
      serve_duration := v;
      parse rest
    | "--chaos" :: rest ->
      chaos := true;
      parse rest
    | "--chaos-seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some i ->
        chaos_seed := i;
        chaos := true;
        parse rest
      | None ->
        Printf.eprintf "--chaos-seed expects an integer, got %S\n" v;
        exit 1)
    | "--chaos-seed" :: [] ->
      Printf.eprintf "--chaos-seed expects a value\n";
      exit 1
    | "--chaos-requests" :: rest ->
      let v, rest = int_arg "--chaos-requests" rest in
      chaos_requests := v;
      chaos := true;
      parse rest
    | "--replicas" :: rest ->
      let v, rest = int_arg "--replicas" rest in
      replicas := v;
      parse rest
    | "--shards" :: rest ->
      let v, rest = int_arg "--shards" rest in
      shards := v;
      parse rest
    | "--disaggregate" :: rest ->
      disaggregate := true;
      parse rest
    | "--hard-kill" :: rest ->
      hard_kill := true;
      chaos := true;
      parse rest
    | "--paged" :: rest ->
      paged := true;
      parse rest
    | "--block-size" :: rest ->
      let v, rest = int_arg "--block-size" rest in
      block_size := v;
      paged := true;
      parse rest
    | "--num-blocks" :: rest ->
      let v, rest = int_arg "--num-blocks" rest in
      num_blocks := v;
      paged := true;
      parse rest
    | "--spec-decode" :: rest ->
      let v, rest = int_arg "--spec-decode" rest in
      spec_decode := v;
      parse rest
    | "--draft-layers" :: rest ->
      let v, rest = int_arg "--draft-layers" rest in
      draft_layers := v;
      parse rest
    | "--sys-prompt" :: rest ->
      let v, rest = int_arg "--sys-prompt" rest in
      sys_prompt := v;
      parse rest
    | "--online-tune" :: rest ->
      online_tune := true;
      parse rest
    | "--placement" :: v :: rest -> (
      match Cluster.Router.placement_of_string v with
      | Some p ->
        placement := p;
        parse rest
      | None ->
        Printf.eprintf "--placement expects rr|jsq|deadline, got %S\n" v;
        exit 1)
    | "--placement" :: [] ->
      Printf.eprintf "--placement expects a value\n";
      exit 1
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--json" :: [] ->
      Printf.eprintf "--json expects a file path\n";
      exit 1
    | "--compare" :: path :: rest ->
      compare_path := Some path;
      parse rest
    | "--compare" :: [] ->
      Printf.eprintf "--compare expects a baseline JSON path\n";
      exit 1
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
      Printf.eprintf "unknown flag %S\n" a;
      usage ()
    | name :: rest ->
      names := name :: !names;
      parse rest
  in
  parse args;
  let names = List.rev !names in
  if !telemetry then begin
    Telemetry.Registry.reset ();
    Telemetry.Registry.enable ()
  end;
  (match (names, !serve || !chaos) with
  | [], true -> ()  (* --serve/--chaos alone run only those harnesses *)
  | _ :: _, _ ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
      names
  | [], false -> run_all ());
  if !serve then
    run_serve ~rate:!serve_rate ~duration:!serve_duration ~replicas:!replicas
      ~shards:!shards ~disaggregate:!disaggregate ~placement:!placement
      ~paged:!paged ~block_size:!block_size ~num_blocks:!num_blocks
      ~spec_k:!spec_decode ~draft_layers:!draft_layers
      ~sys_prompt:!sys_prompt ~online_tune:!online_tune ();
  if !chaos then
    run_chaos ~seed:!chaos_seed ~requests:!chaos_requests
      ~replicas:
        (if !shards > 1 || !disaggregate || !hard_kill then max 2 !replicas
         else !replicas)
      ~shards:!shards ~disaggregate:!disaggregate ~hard_kill:!hard_kill
      ~paged:!paged ~block_size:!block_size ~num_blocks:!num_blocks
      ~spec_k:!spec_decode ~draft_layers:!draft_layers
      ~sys_prompt:!sys_prompt ();
  if !telemetry then begin
    Telemetry.Registry.disable ();
    let host = Platform.host in
    Telemetry.Report.print
      ~peak_gflops:(Platform.peak_gflops host Datatype.F32)
      ~mem_bw_gbs:host.Platform.mem_bw_gbs ()
  end;
  (match !json_path with Some p -> write_bench_json p | None -> ());
  (match !compare_path with Some p -> compare_with_baseline p | None -> ());
  if !chaos_failed then exit 1
