type activation = Linear | Relu_act | Gelu_act

type t = {
  in_features : int;
  out_features : int;
  weights : Tensor.t;
  bias : Tensor.t;
  act : activation;
  block : int;
  dtype : Datatype.t;
  spec : string;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let create ~rng ?(dtype = Datatype.F32) ?(act = Linear) ?(block = 32)
    ?(spec = Gemm.default_spec) ~in_features ~out_features () =
  (* largest block not exceeding the request that tiles both features *)
  let g = gcd in_features out_features in
  let rec fit b = if b >= 1 && g mod b = 0 then b else fit (b - 1) in
  let block = fit (min block g) in
  let scale = sqrt (2.0 /. float_of_int in_features) in
  let weights =
    Tensor.init dtype [| out_features; in_features |] (fun _ ->
        Prng.uniform rng ~scale)
  in
  let bias = Tensor.create Datatype.F32 [| out_features |] in
  Tensor.fill_random bias rng ~scale:0.01;
  { in_features; out_features; weights; bias; act; block; dtype; spec }

(* transpose a logical [N x F] activation into the GEMM B layout
   ([F x N] blocked as [Nb][Kb][bk][bn]) and back *)
let transpose t0 =
  let d = Tensor.dims t0 in
  Tensor.init (Tensor.dtype t0) [| d.(1); d.(0) |] (fun i ->
      Tensor.get t0 [| i.(1); i.(0) |])

(* largest divisor of n not exceeding cap (>= 1) *)
let divisor_block n cap =
  let rec go d = if d >= 1 && n mod d = 0 then d else go (d - 1) in
  go (min cap n)

(* k_step = 1: one BRGEMM call per K block, each rounding C to FP32, as
   serving has always computed; a full-K reduction would change its bits *)
let gemm_cfg t ~n =
  Gemm.make_config ~bm:t.block ~bn:(divisor_block n t.block) ~bk:t.block
    ~dtype:t.dtype ~k_step:1 ~m:t.out_features ~n ~k:t.in_features ()

let act_unary = function
  | Linear -> None
  | Relu_act -> Some Tpp_unary.Relu
  | Gelu_act -> Some Tpp_unary.Gelu

type ctx = {
  input : Tensor.t;  (** logical [N x in] *)
  pre_act : Tensor.t;  (** logical [N x out], before activation *)
}

let forward_internal ?nthreads t x =
  let dx = Tensor.dims x in
  assert (Array.length dx = 2 && dx.(1) = t.in_features);
  let n = dx.(0) in
  (* any token count works: bn falls back to the largest divisor of n *)
  let cfg = gemm_cfg t ~n in
  (* routed through the spec-resolver hook: with online tuning enabled the
     per-shape cache may substitute a tuned (config, spec) here *)
  let g = Gemm.create_resolved cfg t.spec in
  let a = Gemm.pack_a cfg t.weights in
  let b = Gemm.pack_b cfg (transpose x) in
  let c = Gemm.alloc_c cfg in
  let bias = t.bias in
  let block = t.block in
  let post ~im ~in_:_ ~c_block =
    let bias_col = Tensor.view_flat bias ~off:(im * block) ~rows:block ~cols:1 ~ld:1 in
    Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Col ~a:c_block ~b:bias_col
      ~out:c_block
  in
  Gemm.run ?nthreads ~post g ~a ~b ~c;
  (* unpack to logical [N x out] (transpose of the GEMM C) *)
  let o = Gemm.unpack_c cfg c in
  let pre = transpose o in
  let y =
    match act_unary t.act with
    | None -> Tensor.copy pre
    | Some op ->
      let y = Tensor.create Datatype.F32 (Tensor.dims pre) in
      Tpp_unary.exec op ~inp:(Tensor.view2d pre) ~out:(Tensor.view2d y);
      y
  in
  (y, { input = x; pre_act = pre })

let forward ?nthreads t x = fst (forward_internal ?nthreads t x)
let forward_ctx ?nthreads t x = forward_internal ?nthreads t x

type grads = { d_input : Tensor.t; d_weights : Tensor.t; d_bias : Tensor.t }

(* plain blocked GEMM on logical tensors, used for the two backward
   contractions (dX = dY W, dW = dY^T X) *)
let gemm_logical ?nthreads ~block ~spec a b =
  let da = Tensor.dims a and db = Tensor.dims b in
  let m = da.(0) and k = da.(1) and n = db.(1) in
  let bm = min block m and bn = min block n and bk = min block k in
  (* fall back to reference for shapes indivisible by any small block *)
  if m mod bm <> 0 || n mod bn <> 0 || k mod bk <> 0 then
    Reference.matmul a b
  else begin
    let cfg = Gemm.make_config ~bm ~bn ~bk ~m ~n ~k () in
    let g = Gemm.create cfg spec in
    Gemm.run_logical ?nthreads g ~a ~b
  end

let backward ?nthreads t ctx ~dy =
  let ddy = Tensor.dims dy in
  assert (ddy.(1) = t.out_features);
  let n = ddy.(0) in
  (* activation backward *)
  let dpre =
    match t.act with
    | Linear -> dy
    | Relu_act ->
      let d = Tensor.create Datatype.F32 (Tensor.dims dy) in
      Tpp_unary.exec2 Tpp_unary.Relu_backward ~inp:(Tensor.view2d dy)
        ~aux:(Tensor.view2d ctx.pre_act) ~out:(Tensor.view2d d);
      d
    | Gelu_act ->
      let d = Tensor.create Datatype.F32 (Tensor.dims dy) in
      Tpp_unary.exec2 Tpp_unary.Gelu_backward ~inp:(Tensor.view2d dy)
        ~aux:(Tensor.view2d ctx.pre_act) ~out:(Tensor.view2d d);
      d
  in
  (* dX[N x in] = dPre[N x out] * W[out x in] *)
  let d_input = gemm_logical ?nthreads ~block:t.block ~spec:t.spec dpre t.weights in
  (* dW[out x in] = dPre^T[out x N] * X[N x in] *)
  let d_weights =
    gemm_logical ?nthreads ~block:t.block ~spec:t.spec (transpose dpre) ctx.input
  in
  (* db[out] = column sums of dPre *)
  let d_bias = Tensor.create Datatype.F32 [| t.out_features |] in
  let db_view = Tensor.view_flat d_bias ~off:0 ~rows:1 ~cols:t.out_features ~ld:t.out_features in
  Tpp_unary.reduce Tpp_unary.Sum Tpp_unary.Cols ~inp:(Tensor.view2d dpre)
    ~out:db_view;
  ignore n;
  { d_input; d_weights; d_bias }

let sgd_update t grads ~lr =
  for i = 0 to Tensor.numel t.weights - 1 do
    Tensor.set_flat t.weights i
      (Tensor.get_flat t.weights i -. (lr *. Tensor.get_flat grads.d_weights i))
  done;
  for i = 0 to Tensor.numel t.bias - 1 do
    Tensor.set_flat t.bias i
      (Tensor.get_flat t.bias i -. (lr *. Tensor.get_flat grads.d_bias i))
  done

let flops t ~n =
  2.0 *. float_of_int n *. float_of_int t.in_features
  *. float_of_int t.out_features
