(* One benchmark process: timed set-up, the open loop, the closed loop,
   the kernel window, then the output checks. An untraced process
   reports raw samples; a traced one the per-layer metrics. *)

type setup = {
  llm : Llm.t;
  front : Serving.front;
  cases : Kernel_suite.case list;
}

(* Model build, serving warm-up on another stream of the same seed, and
   kernel inputs plus loop-nest compilation. It runs once per process,
   on cold JIT, BRGEMM and scratch caches. *)
let setup workload ~seed ?engine () =
  let llm = Llm.create ~rng:(Gen.stream ~seed "model") Llm.tiny in
  let front =
    match workload with
    | Gen.Chat ->
      Serving.scheduler_front ?engine:(Option.map (fun f -> f llm) engine) llm
    | Gen.Rag -> Serving.router_front llm
  in
  let warm = Gen.warmup workload ~seed ~first_id:200_000 in
  Serving.serve_batches front
    ~batch:(match workload with Gen.Chat -> 8 | Gen.Rag -> 2)
    warm;
  { llm; front; cases = Kernel_suite.build ~seed }

let params = function Gen.Chat -> Params.chat | Gen.Rag -> Params.rag

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* What one untraced process measured, as raw samples; perfbench/run.py
   combines several such processes into the end-to-end metrics. *)
type raw = {
  setup_s : float;
  rss_peak_mb : float;
  ttft_ms : float list;  (** open loop, finished requests *)
  gaps_ms : float list;  (** open loop, gaps between successive tokens *)
  open_attempted : int;
  slo_met : int;  (** open-loop requests meeting both SLO limits *)
  window_tokens : int;  (** closed loop *)
  window_s : float;
  kernels : (string * float * float list) list;  (** name, flops, run seconds *)
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  result : [ `Raw of raw | `Layers of Report.metric list ];
}

let run workload ~seed ~seconds ~trace =
  let t0 = Telemetry.Clock.now_s () in
  let probe = if trace then Some (Layers.create workload ~seed) else None in
  let s = setup workload ~seed ?engine:(Option.bind probe Layers.engine) () in
  let setup_s = Telemetry.Clock.now_s () -. t0 in
  Gc.compact ();
  let p = params workload in
  let front =
    match probe with Some pr -> Layers.instrument pr s.front | None -> s.front
  in
  (* serving *)
  let arrivals =
    Gen.arrivals workload ~seed ~rate:p.Params.rate_per_s
      ~duration:(seconds *. Params.open_share) ~first_id:0
  in
  Option.iter (fun pr -> Layers.serving_start pr front) probe;
  let open_ = Serving.open_loop front arrivals in
  let clients =
    Array.length front.Serving.schedulers
    * Serve.Scheduler.default_config.Serve.Scheduler.max_batch
  in
  let next =
    let src = Gen.source workload ~seed "closed" in
    let id = ref 100_000 in
    fun () ->
      incr id;
      src ~id:!id
  in
  let closed =
    Serving.closed_loop front ~clients ~duration:(seconds *. Params.closed_share)
      next
  in
  Option.iter (fun pr -> Layers.serving_stop pr front) probe;
  (* kernels *)
  let timings =
    List.combine s.cases
      (Kernel_suite.timings ~window:(seconds *. Params.kernel_share)
         (List.map (fun c -> c.Kernel_suite.run) s.cases))
  in
  let kernels_ok = List.map (fun c -> c.Kernel_suite.check ()) s.cases in
  (* checks *)
  let tracks = open_.Serving.tracks @ closed.Serving.tracks in
  let sampled =
    Oracle.sample ~seed Params.oracle_sample (List.filter Serving.finished tracks)
  in
  let mismatched =
    List.filter
      (fun tr -> not (Oracle.request_ok s.llm tr.Serving.item.Gen.req))
      sampled
  in
  let unfinished = List.filter (fun tr -> not (Serving.finished tr)) tracks in
  let bad_kernels = List.length (List.filter not kernels_ok) in
  let attempted = List.length tracks + List.length s.cases in
  let failed = List.length unfinished + List.length mismatched + bad_kernels in
  let correct = mismatched = [] && bad_kernels = 0 in
  let result =
    match probe with
    | Some pr ->
      let rate (c, times) = c.Kernel_suite.flops /. Stats.median times /. 1e9 in
      `Layers
        (Layers.metrics pr ~raw:s.front ~front ~open_ ~closed
           ~gemm_f32:(rate (List.hd timings)))
    | None ->
      let done_ = List.filter Serving.finished open_.Serving.tracks in
      let met tr =
        Serving.ttft_ms tr <= p.Params.ttft_limit_ms
        && Serving.mean_gap_ms tr <= p.Params.gap_limit_ms
        && not (List.memq tr mismatched)
      in
      `Raw
        { setup_s; rss_peak_mb = vm_hwm_mb ();
          ttft_ms = List.map Serving.ttft_ms done_;
          gaps_ms = open_.Serving.gaps_ms;
          open_attempted = List.length open_.Serving.tracks;
          slo_met = List.length (List.filter met done_);
          window_tokens = closed.Serving.window_tokens;
          window_s = closed.Serving.window_s;
          kernels =
            List.map
              (fun (c, times) -> (c.Kernel_suite.name, c.Kernel_suite.flops, times))
              timings }
  in
  { correct; attempted; failed; result }
