(* The paper's kernels through their public entry points, the default
   team, [make_config] defaults and default spec strings: GEMM 512^3 in
   FP32 and in BF16 with VNNI-packed B, a ResNet-50 3x3 conv (64->64
   channels, 56x56, minibatch 2) and Block-SpMM 512^3 with 16x16 blocks
   at 80% sparsity. Each is timed over a fixed window and reported at
   its median rate. *)

type case = {
  name : string;  (** end-to-end metric name *)
  flops : float;  (** per run; SpMM counts only the stored blocks *)
  run : unit -> unit;
  check : unit -> bool;  (** last run's output against the reference *)
}

let dim = 512

let random rng dims =
  let t = Tensor.create Datatype.F32 dims in
  Tensor.fill_random t rng ~scale:1.0;
  t

(* Rows [rows] of a rank-2 tensor. *)
let take_rows t rows =
  let cols = (Tensor.dims t).(1) in
  Tensor.init Datatype.F32
    [| Array.length rows; cols |]
    (fun i -> Tensor.get t [| rows.(i.(0)); i.(1) |])

let sample_rows r n = Array.init 16 (fun _ -> Prng.int r n)

(* C = A B through [Gemm]; checked on 16 sampled rows. *)
let gemm rng ~name ~dtype ~tol =
  let vnni_b = dtype = Datatype.BF16 in
  let cfg = Gemm.make_config ~dtype ~vnni_b ~m:dim ~n:dim ~k:dim () in
  let g = Gemm.create cfg Gemm.default_spec in
  let a = random rng [| dim; dim |] and b = random rng [| dim; dim |] in
  let pa = Gemm.pack_a cfg (Tensor.cast a dtype)
  and pb = Gemm.pack_b cfg (Tensor.cast b dtype) in
  let c = Gemm.alloc_c cfg in
  let rows = sample_rows rng dim in
  { name; flops = Gemm.flops cfg;
    run = (fun () -> Gemm.run g ~a:pa ~b:pb ~c);
    check =
      (fun () ->
        Oracle.close ~tol
          (take_rows (Gemm.unpack_c cfg c) rows)
          (Reference.matmul (take_rows a rows) b)) }

(* ResNet-50 3x3 conv; checked on one image and four output channels. *)
let conv rng =
  let n, c, k, h, w, r, s = (2, 64, 64, 56, 56, 3, 3) in
  let cfg = Conv.make_config ~pad:1 ~n ~c ~k ~h ~w ~r ~s () in
  let cv = Conv.create cfg Conv.default_spec in
  let inp = random rng [| n; c; h; w |] and wts = random rng [| k; c; r; s |] in
  let pi = Conv.pack_input cfg inp and pw = Conv.pack_weights cfg wts in
  let out = Conv.alloc_output cfg in
  let img = Prng.int rng n in
  let ks = Array.init 4 (fun _ -> Prng.int rng k) in
  { name = "conv_gflops"; flops = Conv.flops cfg;
    run = (fun () -> Conv.run cv ~input:pi ~weights:pw ~output:out);
    check =
      (fun () ->
        let p, q = Conv.out_dims cfg in
        let got = Conv.unpack_output cfg out in
        let got =
          Tensor.init Datatype.F32 [| 1; 4; p; q |] (fun i ->
              Tensor.get got [| img; ks.(i.(1)); i.(2); i.(3) |])
        in
        let want =
          Reference.conv2d ~stride:1 ~pad:1
            (Tensor.init Datatype.F32 [| 1; c; h; w |] (fun i ->
                 Tensor.get inp [| img; i.(1); i.(2); i.(3) |]))
            (Tensor.init Datatype.F32 [| 4; c; r; s |] (fun i ->
                 Tensor.get wts [| ks.(i.(0)); i.(1); i.(2); i.(3) |]))
        in
        Oracle.close ~tol:Oracle.tol_f32 got want) }

(* Block-SpMM, 16x16 blocks at 80% sparsity; checked on 16 rows. *)
let spmm rng =
  let a =
    Bcsc.random ~rng ~dtype:Datatype.F32 ~rows:dim ~cols:dim ~bm:16 ~bk:16
      ~sparsity:0.8
  in
  let b = random rng [| dim; dim |] in
  let cfg = Spmm_kernel.make_config ~m:dim ~n:dim ~k:dim ~bm:16 ~bk:16 () in
  let sp = Spmm_kernel.create cfg Spmm_kernel.default_spec in
  let pb = Spmm_kernel.pack_b cfg b in
  let c = Tensor.create Datatype.F32 [| dim; dim |] in
  let rows = sample_rows rng dim in
  { name = "spmm_gflops"; flops = Spmm_kernel.effective_flops cfg ~a;
    run = (fun () -> Spmm_kernel.run sp ~a ~b:pb ~c);
    check =
      (fun () ->
        Oracle.close ~tol:Oracle.tol_f32 (take_rows c rows)
          (Reference.matmul (take_rows (Bcsc.to_dense a) rows) b)) }

(* Inputs from the seed; creating the kernels compiles their loop nests. *)
let build ~seed =
  let rng = Gen.stream ~seed "kernels" in
  [ gemm rng ~name:"gemm_f32_gflops" ~dtype:Datatype.F32 ~tol:Oracle.tol_f32;
    gemm rng ~name:"gemm_bf16_gflops" ~dtype:Datatype.BF16 ~tol:Oracle.tol_bf16;
    conv rng;
    spmm rng ]

(* Wall seconds of each run of each of [fs]. They run in interleaved
   rounds for [window] seconds in all (after one untimed round, and at
   least three timed rounds), so a slow stretch of the host touches every
   one a little rather than one a lot. *)
let timings ~window fs =
  List.iter (fun f -> f ()) fs;
  let t0 = Telemetry.Clock.now_s () in
  let rec go rounds acc =
    let acc =
      List.map2
        (fun f times ->
          let s = Telemetry.Clock.now_s () in
          f ();
          (Telemetry.Clock.now_s () -. s) :: times)
        fs acc
    in
    if rounds + 1 >= 3 && Telemetry.Clock.now_s () -. t0 >= window then acc
    else go (rounds + 1) acc
  in
  go 0 (List.map (fun _ -> []) fs)
