(* The traced run's per-layer metrics. The benchmark times its own calls
   into each layer's public functions, reads [Telemetry.Registry] kernel
   stats and the scheduler's prefill/decode spans, and takes runtime
   counters as deltas over the serving phases. Shapes that the serving
   path hides behind the abstract [Llm.t] are replayed on same-shape
   layers. A metric whose layer is not on a workload's path reads 0. *)

let now_ns = Telemetry.Clock.now_ns
let ms_of_ns ns = Int64.to_float ns /. 1e6
let counter = Telemetry.Counter.value

(* Runtime state read when the serving phases end, before the kernel
   window, the replays and the overhead measurement move it. *)
type at_stop = {
  deltas : (string * int) list;  (** counter deltas over the serving phases *)
  gc : Gc.stat;
  tokens : int;
  kv_denied : int;
  gemm : float * float;  (** GEMM flops and seconds over the serving phases *)
  dispatch_ns : float;  (** median team dispatch latency *)
}

type t = {
  workload : Gen.workload;
  seed : int;
  mutable on : bool;  (** inside a timed serving phase *)
  mutable extend_ns : int64;  (** wrapped engine (chat) *)
  mutable extend_calls : int;
  mutable step_ms : float list;
  mutable step_ns : int64;
  mutable submit_us : float list;
  mutable batch : float list;  (** in-flight sessions per scheduler *)
  mutable blocks_peak : float;
  mutable prefill_ms : float list;
  mutable decode_ms : float list;
  mutable span_extend_ns : int64;
  mutable queue_ms : float list;
  submitted_ns : (int, int64) Hashtbl.t;
  mutable base : (string * int) list;
  mutable gemm0 : float * float;
  mutable gc0 : Gc.stat;
  mutable tokens0 : int;
  mutable denied0 : int;
  mutable t0 : int64;
  mutable wall_ns : int64;
  mutable stop : at_stop option;
}

let create workload ~seed =
  (* room for every causal-trace event of the run, so prefill rows can
     be read back once at the end; spans are drained after every step
     instead, so the span store never fills *)
  Telemetry.Recorder.set_capacity 262_144;
  { workload; seed; on = false; extend_ns = 0L; extend_calls = 0;
    step_ms = []; step_ns = 0L; submit_us = []; batch = []; blocks_peak = 0.0;
    prefill_ms = []; decode_ms = []; span_extend_ns = 0L; queue_ms = [];
    submitted_ns = Hashtbl.create 1024; base = []; gemm0 = (0.0, 0.0);
    gc0 = Gc.quick_stat (); tokens0 = 0; denied0 = 0; t0 = 0L; wall_ns = 0L;
    stop = None }

(* Chat's scheduler gets an engine that times each [Llm.extend]; the
   router builds its own replicas, so rag relies on the spans. *)
let engine p =
  match p.workload with
  | Gen.Rag -> None
  | Gen.Chat ->
    Some
      (fun llm ->
        { Serve.Scheduler.extend =
            (fun cache emb ->
              let t0 = now_ns () in
              let out = Llm.extend llm cache emb in
              p.extend_ns <-
                Int64.add p.extend_ns (Telemetry.Clock.elapsed_ns ~since:t0);
              p.extend_calls <- p.extend_calls + 1;
              out) })

(* Fold the spans recorded since the last call into the aggregates and
   empty the store, so it never fills. *)
let drain_spans p =
  let spans = Telemetry.Span.all () in
  Telemetry.Span.reset ();
  List.iter
    (fun (s : Telemetry.Span.t) ->
      if s.Telemetry.Span.cat = "serve" then begin
        let ms = ms_of_ns s.Telemetry.Span.dur_ns in
        p.span_extend_ns <- Int64.add p.span_extend_ns s.Telemetry.Span.dur_ns;
        match s.Telemetry.Span.name with
        | "prefill" ->
          p.prefill_ms <- ms :: p.prefill_ms;
          let id = int_of_float (List.assoc "request" s.Telemetry.Span.args) in
          Option.iter
            (fun sub ->
              p.queue_ms <-
                ms_of_ns (Int64.sub s.Telemetry.Span.start_ns sub) :: p.queue_ms)
            (Hashtbl.find_opt p.submitted_ns id)
        | "decode" -> p.decode_ms <- ms :: p.decode_ms
        | _ -> ()
      end)
    spans

let live_share pools =
  List.fold_left
    (fun acc pool ->
      match Serve.Kv_pool.manager pool with
      | None -> acc
      | Some m ->
        Float.max acc
          (float_of_int (Kv.Block_manager.live_blocks m)
          /. float_of_int (Kv.Block_manager.num_blocks m)))
    0.0 pools

(* The same front with the benchmark's timers around submit and step. *)
let instrument p (f : Serving.front) =
  { f with
    Serving.submit =
      (fun ~now req ->
        let t0 = now_ns () in
        let ok = f.Serving.submit ~now req in
        if p.on then begin
          let us = Int64.to_float (Telemetry.Clock.elapsed_ns ~since:t0) /. 1e3 in
          p.submit_us <- us :: p.submit_us;
          Hashtbl.replace p.submitted_ns req.Serve.Request.id t0
        end;
        ok);
    step =
      (fun ~now ->
        let t0 = now_ns () in
        let worked = f.Serving.step ~now in
        if p.on then begin
          let ns = Telemetry.Clock.elapsed_ns ~since:t0 in
          if worked then begin
            p.step_ms <- ms_of_ns ns :: p.step_ms;
            p.step_ns <- Int64.add p.step_ns ns;
            Array.iter
              (fun s ->
                p.batch <- float_of_int (Serve.Scheduler.active_count s) :: p.batch)
              f.Serving.schedulers
          end;
          p.blocks_peak <- Float.max p.blocks_peak (live_share f.Serving.pools);
          drain_spans p
        end;
        worked) }

let counters =
  Telemetry.Registry.
    [ jit_misses_name; jit_compile_ns_name; pool_dispatches_name; pool_spin_name;
      pool_park_name; arena_misses_name; fault_shed_name; spans_dropped_name;
      Kv.Block_manager.cow_copies_name ]

let gemm_totals () =
  List.fold_left
    (fun (fl, s) (k : Telemetry.Registry.kernel_stat) ->
      if k.Telemetry.Registry.kind = "gemm" then
        (fl +. k.Telemetry.Registry.flops, s +. k.Telemetry.Registry.seconds)
      else (fl, s))
    (0.0, 0.0)
    (Telemetry.Registry.kernel_stats ())

let denied (f : Serving.front) =
  List.fold_left (fun a pool -> a + Serve.Kv_pool.denied pool) 0 f.Serving.pools

(* Tracing is on from here to the end of the run. *)
let serving_start p (front : Serving.front) =
  Telemetry.Registry.enable ();
  Telemetry.Span.reset ();
  Telemetry.Histogram.reset
    (Telemetry.Histogram.find_or_create Telemetry.Registry.pool_dispatch_ns_name);
  p.extend_ns <- 0L;
  p.extend_calls <- 0;
  p.base <- List.map (fun n -> (n, counter n)) counters;
  p.gemm0 <- gemm_totals ();
  p.tokens0 <- front.Serving.tokens ();
  p.denied0 <- denied front;
  p.gc0 <- Gc.quick_stat ();
  p.on <- true;
  p.t0 <- now_ns ()

let delta p name = counter name - List.assoc name p.base

let serving_stop p (front : Serving.front) =
  p.wall_ns <- Telemetry.Clock.elapsed_ns ~since:p.t0;
  p.on <- false;
  drain_spans p;
  let h = Telemetry.Histogram.find_or_create Telemetry.Registry.pool_dispatch_ns_name in
  let fl, sec = gemm_totals () in
  p.stop <-
    Some
      { deltas = List.map (fun n -> (n, delta p n)) counters;
        gc = Gc.quick_stat ();
        tokens = front.Serving.tokens () - p.tokens0;
        kv_denied = denied front - p.denied0;
        gemm = (fl -. fst p.gemm0, sec -. snd p.gemm0);
        dispatch_ns =
          (if Telemetry.Histogram.count h = 0 then 0.0
           else Telemetry.Histogram.quantile h 0.5) }

(* ---- replays at fixed shapes ---- *)

(* Median microseconds per call of [f] over five batches of [reps]. *)
let time_us ~reps f =
  f ();
  Stats.median
    (List.init 5 (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to reps do
           f ()
         done;
         Int64.to_float (Telemetry.Clock.elapsed_ns ~since:t0) /. 1e3
         /. float_of_int reps))

let phases =
  [ "embed"; "layernorm"; "qkv"; "attend"; "out_proj"; "ffn"; "swiglu"; "residual" ]

(* One decoder block's public calls at [rows] new tokens over [ctx]
   cached ones, on layers shaped like [Llm.tiny]'s (as [Llm.create]
   builds them); per-block phases are scaled by the layer count, and
   coverage compares their sum with [Llm.extend] at the same shape
   ([embed] runs outside [extend] and is left out of coverage). *)
let replay_block ~prefix ~rows ~ctx ~reps =
  let cfg = Llm.tiny in
  let hidden = cfg.Llm.hidden and inter = cfg.Llm.intermediate in
  let rng = Prng.create 17 in
  let att = Attention.create ~rng ~block:16 ~hidden ~heads:cfg.Llm.heads () in
  let fc i o = Fc.create ~rng ~block:16 ~in_features:i ~out_features:o () in
  let up = fc hidden inter and gate = fc hidden inter and down = fc inter hidden in
  let random = Kernel_suite.random rng in
  let gamma = random [| 1; hidden |] and beta = random [| 1; hidden |] in
  let x = random [| rows; hidden |] in
  let k_all = random [| ctx + rows; hidden |] in
  let v_all = random [| ctx + rows; hidden |] in
  let v2 = Tensor.view2d in
  let normed = Tensor.create Datatype.F32 [| rows; hidden |] in
  let layernorm () =
    Blocks.layernorm_rows_nostats ~eps:1e-5 ~inp:(v2 x) ~gamma:(v2 gamma)
      ~beta:(v2 beta) ~out:(v2 normed)
  in
  let q, _, _ = Attention.project att x in
  let ctx_t = Attention.attend ~causal:true ~heads:cfg.Llm.heads q k_all v_all in
  let g = Fc.forward gate x and u = Fc.forward up x in
  let s = Tensor.create Datatype.F32 (Tensor.dims g) in
  let acc = Tensor.copy x in
  let llm = Llm.create ~rng Llm.tiny in
  let ids = Array.init rows (fun i -> i mod Gen.vocab) in
  let cache = Llm.new_cache llm in
  let past = Array.init ctx (fun i -> i mod Gen.vocab) in
  ignore (Llm.extend llm cache (Llm.embed llm past));
  let layers = float_of_int cfg.Llm.layers in
  let per_block =
    [ ("layernorm", 2.0, layernorm);
      ("qkv", 1.0, fun () -> ignore (Attention.project att x));
      ( "attend", 1.0,
        fun () ->
          ignore (Attention.attend ~causal:true ~heads:cfg.Llm.heads q k_all v_all) );
      ("out_proj", 1.0, fun () -> ignore (Fc.forward att.Attention.wo ctx_t));
      ( "ffn", 1.0,
        fun () ->
          ignore (Fc.forward up x);
          ignore (Fc.forward gate x);
          ignore (Fc.forward down u) );
      ( "swiglu", 1.0,
        fun () ->
          Tpp_unary.exec Tpp_unary.Sigmoid ~inp:(v2 g) ~out:(v2 s);
          Tpp_binary.exec Tpp_binary.Mul ~bcast:Tpp_binary.Full ~a:(v2 g) ~b:(v2 s)
            ~out:(v2 s);
          Tpp_binary.exec Tpp_binary.Mul ~bcast:Tpp_binary.Full ~a:(v2 u) ~b:(v2 s)
            ~out:(v2 s) );
      ( "residual", 2.0,
        fun () ->
          Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Full ~a:(v2 acc) ~b:(v2 x)
            ~out:(v2 acc) ) ]
  in
  let block =
    List.map
      (fun (name, calls, f) -> (name, calls *. layers *. time_us ~reps f))
      per_block
  in
  let embed = time_us ~reps (fun () -> ignore (Llm.embed llm ids)) in
  let emb = Llm.embed llm ids in
  let extend =
    time_us ~reps (fun () ->
        ignore (Llm.extend llm cache emb);
        Llm.truncate_cache cache ctx)
  in
  let covered = Stats.sum (List.map snd block) in
  List.map
    (fun name ->
      let v = if name = "embed" then embed else List.assoc name block in
      Report.metric (Printf.sprintf "%s.%s_us" prefix name) "us" v)
    phases
  @ [ Report.metric (prefix ^ ".coverage") "fraction" (covered /. extend)
        ~note:(Printf.sprintf "phases %.1f us of extend %.1f us" covered extend) ]

(* One decode-shaped [Fc.forward] (the FFN up projection, one token)
   split into the calls it makes. *)
let replay_fc_decode ~reps =
  let cfg = Llm.tiny in
  let rng = Prng.create 23 in
  let fc =
    Fc.create ~rng ~block:16 ~in_features:cfg.Llm.hidden
      ~out_features:cfg.Llm.intermediate ()
  in
  let x = Kernel_suite.random rng [| 1; cfg.Llm.hidden |] in
  let xt =
    Tensor.init Datatype.F32 [| cfg.Llm.hidden; 1 |] (fun i ->
        Tensor.get x [| i.(1); i.(0) |])
  in
  let gcfg =
    Gemm.make_config ~bm:fc.Fc.block ~bn:1 ~bk:fc.Fc.block ~dtype:fc.Fc.dtype
      ~m:fc.Fc.out_features ~n:1 ~k:fc.Fc.in_features ()
  in
  let g = Gemm.create_resolved gcfg fc.Fc.spec in
  let a = Gemm.pack_a gcfg fc.Fc.weights and b = Gemm.pack_b gcfg xt in
  let c = Gemm.alloc_c gcfg in
  let m name f =
    Report.metric ("dnn.fc_decode." ^ name ^ "_us") "us" (time_us ~reps f)
  in
  [ m "pack_a" (fun () -> ignore (Gemm.pack_a gcfg fc.Fc.weights));
    m "pack_b" (fun () -> ignore (Gemm.pack_b gcfg xt));
    m "gemm" (fun () -> Gemm.run g ~a ~b ~c);
    m "unpack" (fun () -> ignore (Gemm.unpack_c gcfg c)) ]

(* [Kv.Seq.gather] of one layer at rag's mean context. *)
let replay_gather ~reps =
  let rows = Params.prefill_context + Params.prefill_rows in
  let cfg = Llm.tiny in
  let mgr =
    Kv.Block_manager.create ~block_size:Params.rag_block
      ~num_blocks:((rows / Params.rag_block) + 2)
      ~layers:cfg.Llm.layers ~hidden:cfg.Llm.hidden ()
  in
  let seq = Kv.Seq.create mgr in
  let rng = Prng.create 29 in
  let src () = Kernel_suite.random rng [| rows; cfg.Llm.hidden |] in
  Kv.Seq.ensure seq ~len:0 ~extra:rows;
  for layer = 0 to cfg.Llm.layers - 1 do
    Kv.Seq.append seq ~layer ~at:0 ~rows ~k_src:(src ()) ~v_src:(src ())
  done;
  let k_dst = src () and v_dst = src () in
  time_us ~reps (fun () -> Kv.Seq.gather seq ~layer:0 ~rows ~k_dst ~v_dst)

(* One 32x32x32 BRGEMM batch of 8 in a loop. *)
let replay_brgemm ~reps =
  let count = 8 in
  let cfg = Brgemm.make_config ~m:32 ~n:32 ~k:32 () in
  let ker = Dispatch.brgemm cfg in
  let rng = Prng.create 31 in
  let a = Kernel_suite.random rng [| count * 32; 32 |]
  and b = Kernel_suite.random rng [| count * 32; 32 |] in
  let c = Tensor.create Datatype.F32 [| 32; 32 |] in
  let view t = Tensor.view_flat t ~off:0 ~rows:32 ~cols:32 ~ld:32 in
  let us =
    time_us ~reps (fun () ->
        Brgemm.exec_stride ker ~a:(view a) ~b:(view b) ~c:(view c) ~stride_a:1024
          ~stride_b:1024 ~count)
  in
  Brgemm.flops cfg ~count /. us /. 1e3

(* GEMM 512^3 FP32 on one thread, for the team's 2-thread scaling. *)
let gemm_one_thread () =
  let d = Kernel_suite.dim in
  let cfg = Gemm.make_config ~m:d ~n:d ~k:d () in
  let g = Gemm.create cfg Gemm.default_spec in
  let rng = Prng.create 37 in
  let a = Gemm.pack_a cfg (Kernel_suite.random rng [| d; d |])
  and b = Gemm.pack_b cfg (Kernel_suite.random rng [| d; d |]) in
  let c = Gemm.alloc_c cfg in
  let runs =
    Kernel_suite.timings ~window:0.0 [ (fun () -> Gemm.run ~nthreads:1 g ~a ~b ~c) ]
  in
  (cfg, Gemm.flops cfg /. Stats.median (List.hd runs) /. 1e9)

(* Prefill rows per request, from the causal-trace events. *)
let prefill_rows () =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun (e : Telemetry.Recorder.event) ->
      if e.Telemetry.Recorder.ekind = Telemetry.Recorder.Trace_prefill then
        Hashtbl.replace h e.Telemetry.Recorder.a e.Telemetry.Recorder.b)
    (Telemetry.Recorder.events ());
  h

(* Share of timed requests placed on a replica whose ledger already held
   a request of the same tenant (set-up traffic included). *)
let affinity p (front : Serving.front) tracks =
  let tenant = Hashtbl.create 1024 in
  List.iter
    (fun (it : Gen.item) ->
      Hashtbl.replace tenant it.Gen.req.Serve.Request.id it.Gen.tenant)
    (Gen.warmup p.workload ~seed:p.seed ~first_id:200_000);
  List.iter
    (fun (tr : Serving.track) ->
      let it = tr.Serving.item in
      Hashtbl.replace tenant it.Gen.req.Serve.Request.id it.Gen.tenant)
    tracks;
  let timed = Hashtbl.create 1024 in
  List.iter
    (fun (tr : Serving.track) ->
      Hashtbl.replace timed tr.Serving.item.Gen.req.Serve.Request.id ())
    tracks;
  let hits = ref 0 and total = ref 0 in
  Array.iter
    (fun s ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (r : Serve.Request.t) ->
          match Hashtbl.find_opt tenant r.Serve.Request.id with
          | None -> ()
          | Some ten ->
            if Hashtbl.mem timed r.Serve.Request.id then begin
              incr total;
              if Hashtbl.mem seen ten then incr hits
            end;
            Hashtbl.replace seen ten ())
        (Serve.Scheduler.requests s))
    front.Serving.schedulers;
  float_of_int !hits /. float_of_int (max 1 !total)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let p50 xs = if xs = [] then 0.0 else Stats.median xs
let p99 xs = if xs = [] then 0.0 else Stats.pct xs 0.99

(* Wall time of serving [n] fixed requests through [front]. *)
let serve_fixed workload front ~seed ~n =
  let src = Gen.source workload ~seed "overhead" in
  let items = List.init n (fun i -> src ~id:(300_000 + i)) in
  let t0 = now_ns () in
  Serving.serve_batches front ~batch:8 items;
  Int64.to_float (Telemetry.Clock.elapsed_ns ~since:t0)

let metrics p ~raw ~front ~(open_ : Serving.phase) ~(closed : Serving.phase) ~gemm_f32 =
  let st = Option.get p.stop in
  let tracks = open_.Serving.tracks @ closed.Serving.tracks in
  let per_token x = ratio x (float_of_int st.tokens) in
  let d name = float_of_int (List.assoc name st.deltas) in
  let gemm_fl, gemm_s = st.gemm in
  let extend_ns, extend_calls =
    match p.workload with
    | Gen.Chat -> (p.extend_ns, p.extend_calls)
    | Gen.Rag -> (p.span_extend_ns, List.length p.prefill_ms + List.length p.decode_ms)
  in
  let extend_s = Int64.to_float extend_ns /. 1e9 in
  let rows = prefill_rows () in
  let bs = Params.rag_block in
  let prefilled, matched_blocks, prompt_blocks =
    List.fold_left
      (fun (pr, mb, fb) (tr : Serving.track) ->
        let req = tr.Serving.item.Gen.req in
        match Hashtbl.find_opt rows req.Serve.Request.id with
        | None -> (pr, mb, fb)
        | Some r ->
          let plen = Array.length req.Serve.Request.prompt in
          let matched = plen - r in
          (pr + r, mb + ((matched + bs - 1) / bs), fb + (plen / bs)))
      (0, 0, 0) tracks
  in
  let rag = p.workload = Gen.Rag and chat = p.workload = Gen.Chat in
  let only b v = if b then v else 0.0 in
  let affinity = only rag (affinity p front tracks) in
  (* tracing overhead on identical fixed work, untraced first *)
  Telemetry.Registry.disable ();
  let untraced = serve_fixed p.workload raw ~seed:p.seed ~n:16 in
  Telemetry.Registry.enable ();
  let q = create p.workload ~seed:p.seed in
  q.on <- true;
  let traced = serve_fixed p.workload (instrument q raw) ~seed:p.seed ~n:16 in
  Telemetry.Registry.disable ();
  (* replays, untraced *)
  let one_cfg, gemm1 = gemm_one_thread () in
  let predicted =
    (Gemm_trace.score ~platform:Platform.host
       ~nthreads:(Domain.recommended_domain_count ())
       one_cfg Gemm.default_spec)
      .Perf_model.gflops
  in
  let gather = replay_gather ~reps:200 in
  let decode =
    replay_block ~prefix:"dnn.decode" ~rows:1 ~ctx:Params.decode_context ~reps:20
  in
  let prefill =
    replay_block ~prefix:"dnn.prefill" ~rows:Params.prefill_rows
      ~ctx:Params.prefill_context ~reps:4
  in
  let fc = replay_fc_decode ~reps:200 in
  let brgemm = replay_brgemm ~reps:200 in
  let wall_s = Int64.to_float p.wall_ns /. 1e9 in
  let m = Report.metric in
  [ m "serve.step_ms_p50" "ms" (only chat (p50 p.step_ms));
    m "serve.step_ms_p99" "ms" (only chat (p99 p.step_ms));
    m "serve.self_share" "fraction"
      (1.0 -. ratio (Int64.to_float extend_ns) (Int64.to_float p.step_ns));
    m "serve.batch_mean" "count" (Stats.mean p.batch);
    m "serve.queue_wait_ms_p50" "ms" (p50 p.queue_ms);
    m "serve.kv_denied" "count" (float_of_int st.kv_denied);
    m "serve.shed" "count" (d Telemetry.Registry.fault_shed_name);
    m "cluster.submit_us_p50" "us" (only rag (p50 p.submit_us));
    m "cluster.step_ms_p50" "ms" (only rag (p50 p.step_ms));
    m "cluster.step_ms_p99" "ms" (only rag (p99 p.step_ms));
    m "cluster.prefix_affinity_share" "fraction" affinity;
    m "kv.prefix_hit_share" "fraction"
      (only rag (ratio (float_of_int matched_blocks) (float_of_int prompt_blocks)));
    m "kv.blocks_peak_share" "fraction" p.blocks_peak;
    m "kv.cow_copies" "count" (d Kv.Block_manager.cow_copies_name);
    m "kv.gather_us" "us" gather;
    m "dnn.prefill_ms_p50" "ms" (p50 p.prefill_ms);
    m "dnn.prefill_tok_per_s" "tok/s"
      (ratio (float_of_int prefilled) (Stats.sum p.prefill_ms /. 1e3));
    m "dnn.decode_ms_p50" "ms" (p50 p.decode_ms);
    m "dnn.extend_calls_per_token" "count" (per_token (float_of_int extend_calls));
    m "dnn.busy_share" "fraction" (ratio extend_s wall_s) ]
  @ decode @ prefill @ fc
  @ [ m "kernels.gemm_share" "fraction" (ratio gemm_s extend_s);
      m "kernels.gemm_gflops_serving" "GFLOP/s" (ratio gemm_fl gemm_s /. 1e9);
      m "parlooper.jit_misses" "count" (d Telemetry.Registry.jit_misses_name);
      m "parlooper.jit_compile_ms" "ms"
        (d Telemetry.Registry.jit_compile_ns_name /. 1e6);
      m "parlooper.dispatches_per_token" "count"
        (per_token (d Telemetry.Registry.pool_dispatches_name));
      m "parlooper.dispatch_ns_p50" "ns" st.dispatch_ns;
      m "parlooper.park_share" "fraction"
        (let park = d Telemetry.Registry.pool_park_name in
         ratio park (park +. d Telemetry.Registry.pool_spin_name));
      m "parlooper.team_scaling" "ratio" (ratio gemm_f32 gemm1);
      m "tpp.brgemm_gflops" "GFLOP/s" brgemm;
      m "tpp.arena_misses" "count" (d Telemetry.Registry.arena_misses_name);
      m "perfmodel.gemm_f32_predicted_gflops" "GFLOP/s" predicted;
      m "perfmodel.gemm_f32_deviation" "fraction"
        (Float.abs (ratio (predicted -. gemm_f32) gemm_f32));
      m "ocaml.minor_words_per_token" "words"
        (per_token (st.gc.Gc.minor_words -. p.gc0.Gc.minor_words));
      m "ocaml.major_gcs" "count"
        (float_of_int (st.gc.Gc.major_collections - p.gc0.Gc.major_collections));
      m "load.lag_p99_ms" "ms" (p99 open_.Serving.lags_ms);
      m "load.trace_overhead_share" "fraction" (ratio (traced -. untraced) untraced);
      m "trace.spans_dropped" "count" (d Telemetry.Registry.spans_dropped_name) ]
