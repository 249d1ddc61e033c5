type objective =
  | Measured of { nthreads : int; repeats : int }
  | Modeled of { platform : Platform.t; nthreads : int }

type entry = {
  spec : string;
  cfg : Gemm.config;
  gflops : float;
  predicted_gflops : float option;
}

type report = {
  ranked : entry list;
  evaluated : int;
  skipped : int;
  tuning_seconds : float;
}

exception Measurement_error of { spec : string; reason : string }

let candidate_config (base : Gemm.config) (c : Spec_gen.candidate) =
  {
    base with
    Gemm.kk_blocks = c.Spec_gen.block_steps.(0);
    mk_blocks = c.Spec_gen.block_steps.(1);
    nk_blocks = c.Spec_gen.block_steps.(2);
  }

let measure_gemm ~nthreads ~repeats cfg spec =
  let g = Gemm.create cfg spec in
  let rng = Prng.create 1234 in
  let a = Tensor.random cfg.Gemm.dtype [| cfg.Gemm.m; cfg.Gemm.k |] rng ~scale:1.0 in
  let b = Tensor.random cfg.Gemm.dtype [| cfg.Gemm.k; cfg.Gemm.n |] rng ~scale:1.0 in
  let ap = Gemm.pack_a cfg a and bp = Gemm.pack_b cfg b in
  let cp = Gemm.alloc_c cfg in
  (* warm-up resolves JIT compilation outside the timed region *)
  Gemm.run ~nthreads g ~a:ap ~b:bp ~c:cp;
  let t0 = Telemetry.Clock.now_ns () in
  for _ = 1 to repeats do
    Gemm.run ~nthreads g ~a:ap ~b:bp ~c:cp
  done;
  let dt = Telemetry.Clock.elapsed_s ~since:t0 /. float_of_int repeats in
  (* a non-positive interval on a monotonic clock means the timed region
     was not observable — surface it instead of reporting 0 GFLOPS, which
     would silently poison the tuning ranking *)
  if dt <= 0.0 then
    raise
      (Measurement_error
         { spec;
           reason =
             Printf.sprintf "degenerate timing (%g s over %d repeats)" dt
               repeats });
  Gemm.flops cfg /. dt /. 1e9

let default_constraints (base : Gemm.config) =
  Spec_gen.gemm_constraints
    ~trip_a:(Gemm.kb base / base.Gemm.k_step)
    ~trip_b:(Gemm.mb base) ~trip_c:(Gemm.nb base) ~step_a:base.Gemm.k_step ()

let tune_gemm ?max_candidates ?constraints ?model_platform objective base =
  let cons =
    match constraints with
    | Some c -> c
    | None -> default_constraints base
  in
  let candidates = Spec_gen.generate ?max_candidates cons in
  let t0 = Telemetry.Clock.now_ns () in
  let skipped = ref 0 in
  let skip () =
    incr skipped;
    None
  in
  let entries =
    List.filter_map
      (fun cand ->
        let cfg = candidate_config base cand in
        match
          (try Some (Gemm.create cfg cand.Spec_gen.spec)
           with Threaded_loop.Invalid_spec _ | Invalid_argument _ -> None)
        with
        | None -> skip ()
        | Some _ -> (
          match
            match objective with
            | Measured { nthreads; repeats } ->
              measure_gemm ~nthreads ~repeats cfg cand.Spec_gen.spec
            | Modeled { platform; nthreads } ->
              (Gemm_trace.score ~platform ~nthreads cfg cand.Spec_gen.spec)
                .Perf_model.gflops
          with
          | exception Measurement_error { spec; reason } ->
            (* an unmeasurable candidate must not abort the sweep: note the
               failing spec, drop it from the ranking, keep tuning *)
            Printf.eprintf "autotune: skipping spec %S: %s\n%!" spec reason;
            skip ()
          | gflops ->
            (* with a measured objective and a platform model of the host
               we can confront the §II-E model with reality per candidate *)
            let predicted_gflops =
              match (objective, model_platform) with
              | Measured { nthreads; _ }, Some platform ->
                let p =
                  (Gemm_trace.score ~platform ~nthreads cfg cand.Spec_gen.spec)
                    .Perf_model.gflops
                in
                Telemetry.Registry.record_prediction
                  ~name:("gemm " ^ cand.Spec_gen.spec) ~predicted_gflops:p
                  ~measured_gflops:gflops;
                Some p
              | _ -> None
            in
            Some { spec = cand.Spec_gen.spec; cfg; gflops; predicted_gflops }))
      candidates
  in
  let ranked =
    List.sort (fun a b -> compare b.gflops a.gflops) entries
  in
  {
    ranked;
    evaluated = List.length entries;
    skipped = !skipped;
    tuning_seconds = Telemetry.Clock.elapsed_s ~since:t0;
  }
