type activation = Linear | Relu_act | Gelu_act

type kernel = Dense of Tensor.t | Block_sparse of Bcsc.t

type t = {
  in_features : int;
  out_features : int;
  weights : Tensor.t;
  bias : Tensor.t;
  act : activation;
  block : int;
  dtype : Datatype.t;
  spec : string;
  kernel : kernel;
}

(* Tokens are the GEMM's M, read in place as row-major rows, in blocks
   of [max block 64] rows with a short last block; output features are
   its N, in blocks of [block] columns. k_step = 1: one BRGEMM call per
   K block, each rounding C to FP32, as serving has always computed; a
   full-K reduction would change its bits. Only bk orders an output's
   reduction, so the M block is free: 64 rows make a prefill's calls
   few and long, and a decode row is one block either way *)
let gemm_cfg ~block ~dtype ~in_features ~out_features ~tokens =
  Gemm.make_config ~layout:Gemm.Rows ~bm:(max block 64) ~bn:block ~bk:block
    ~dtype ~k_step:1 ~m:tokens ~n:out_features ~k:in_features ()

(* a dense layer on the logical [out x in] [weights], W^T packed as the
   GEMM's B operand (pack_b rounds to [dtype]) *)
let make ~weights ~bias ~act ~block ~dtype ~spec =
  let out_features = Tensor.dim weights 0
  and in_features = Tensor.dim weights 1 in
  let cfg = gemm_cfg ~block ~dtype ~in_features ~out_features ~tokens:1 in
  { in_features; out_features; weights; bias; act; block; dtype; spec;
    kernel = Dense (Gemm.pack_b cfg (Tensor.transpose weights)) }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let create ~rng ?(dtype = Datatype.F32) ?(act = Linear) ?(block = 32)
    ?(spec = Gemm.default_spec) ~in_features ~out_features () =
  (* largest block not exceeding the request that tiles both features *)
  let g = gcd in_features out_features in
  let rec fit b = if b >= 1 && g mod b = 0 then b else fit (b - 1) in
  let block = fit (min block g) in
  let scale = sqrt (2.0 /. float_of_int in_features) in
  let weights = Tensor.random dtype [| out_features; in_features |] rng ~scale in
  let bias = Tensor.random Datatype.F32 [| out_features |] rng ~scale:0.01 in
  make ~weights ~bias ~act ~block ~dtype ~spec

let with_weights t weights =
  if Tensor.dims weights <> [| t.out_features; t.in_features |] then
    invalid_arg "Fc.with_weights: weights are not [out_features x in_features]";
  make ~weights ~bias:t.bias ~act:t.act ~block:t.block ~dtype:t.dtype
    ~spec:t.spec

let sparsify ~bm ~bk ~sparsity t =
  let a = Bcsc.prune_dense ~bm ~bk ~sparsity t.weights in
  { t with weights = Bcsc.to_dense a; kernel = Block_sparse a }

let slice t ~r0 ~r1 =
  (match t.kernel with
  | Block_sparse _ -> invalid_arg "Fc.slice: a block-sparse layer"
  | Dense _ -> ());
  if r0 = 0 && r1 = t.out_features then t
  else begin
    let rows = r1 - r0 in
    let weights =
      Tensor.gather t.dtype [| rows; t.in_features |] t.weights
        ~off:(r0 * t.in_features) ~strides:[| t.in_features; 1 |]
    in
    (* the bias keeps its own dtype (FP32), as the whole layer's does *)
    let bias =
      Tensor.gather (Tensor.dtype t.bias) [| rows |] t.bias ~off:r0
        ~strides:[| 1 |]
    in
    make ~weights ~bias ~act:t.act ~block:t.block ~dtype:t.dtype ~spec:t.spec
  end

let act_unary = function
  | Linear -> None
  | Relu_act -> Some Tpp_unary.Relu
  | Gelu_act -> Some Tpp_unary.Gelu

(* c := act(c + bias_row), bias_row broadcast down c's rows *)
let bias_act act ~bias_row c =
  Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Row ~a:c ~b:bias_row ~out:c;
  match act with None -> () | Some op -> Tpp_unary.exec op ~inp:c ~out:c

(* act(X W^T + b) into columns [col0, col0 + out) of [out]: X is the
   GEMM's A in place (a BF16 layer rounds a copy of it once), the bias
   and the activation are fused on each finished C block *)
let dense_into ?nthreads t packed x ~tokens ~out ~col0 =
  (* routed through the spec-resolver hook: with online tuning enabled the
     per-shape cache may substitute a tuned (config, spec) here *)
  let g =
    Gemm.create_resolved
      (gemm_cfg ~block:t.block ~dtype:t.dtype ~in_features:t.in_features
         ~out_features:t.out_features ~tokens)
      t.spec
  in
  let a =
    if Datatype.equal t.dtype Datatype.F32
       || Datatype.equal (Tensor.dtype x) t.dtype
    then x
    else Tensor.cast x t.dtype
  in
  let bias = t.bias and block = t.block and act = act_unary t.act in
  let post ~im:_ ~in_ ~c_block =
    let bias_row =
      Tensor.view_flat bias ~off:(in_ * block) ~rows:1 ~cols:block ~ld:block
    in
    bias_act act ~bias_row c_block
  in
  Gemm.run ?nthreads ~post ~col0 g ~a ~b:packed ~c:out

(* act(X W^T + b) into the same window by Block-SpMM, in FP32: W in BCSC
   is the sparse A and X^T the dense B; the [out x N] product is
   transposed into the window, then the bias and the activation run over
   all of it *)
let block_sparse_into ?nthreads t (w : Bcsc.t) x ~tokens ~out ~col0 =
  let cfg =
    Spmm_kernel.make_config ~m:t.out_features ~n:tokens ~k:t.in_features
      ~bm:w.Bcsc.bm ~bk:w.Bcsc.bk ()
  in
  let sp = Spmm_kernel.create cfg Spmm_kernel.default_spec in
  let ct = Spmm_kernel.run_logical ?nthreads sp ~a:w ~b:(Tensor.transpose x) in
  let y = Tensor.view out [| 0; col0 |] ~rows:tokens ~cols:t.out_features in
  Tpp_unary.transpose ~inp:(Tensor.view2d ct) ~out:y;
  let bias_row =
    Tensor.view_flat t.bias ~off:0 ~rows:1 ~cols:t.out_features
      ~ld:t.out_features
  in
  bias_act (act_unary t.act) ~bias_row y

let forward_into ?nthreads t x ~out ~col0 =
  assert (Tensor.rank x = 2 && Tensor.dim x 1 = t.in_features);
  let tokens = Tensor.dim x 0 in
  match t.kernel with
  | Dense packed -> dense_into ?nthreads t packed x ~tokens ~out ~col0
  | Block_sparse w -> block_sparse_into ?nthreads t w x ~tokens ~out ~col0

let forward ?nthreads t x =
  let out = Tensor.create Datatype.F32 [| Tensor.dim x 0; t.out_features |] in
  forward_into ?nthreads t x ~out ~col0:0;
  out
