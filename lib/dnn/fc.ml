type activation = Linear | Relu_act | Gelu_act

(* W^T packed as the GEMM's B operand, and the weights it was packed
   from *)
type packed = { src : Tensor.t; wt : Tensor.t }

type t = {
  in_features : int;
  out_features : int;
  weights : Tensor.t;
  bias : Tensor.t;
  act : activation;
  block : int;
  dtype : Datatype.t;
  spec : string;
  packed : packed option Atomic.t;
}

(* Tokens are the GEMM's M, read in place as row-major rows, in blocks
   of [block] rows with a short last block; output features are its N,
   in blocks of [block] columns. k_step = 1: one BRGEMM call per K
   block, each rounding C to FP32, as serving has always computed; a
   full-K reduction would change its bits *)
let gemm_cfg t ~n =
  Gemm.make_config ~layout:Gemm.Rows ~bm:t.block ~bn:t.block ~bk:t.block
    ~dtype:t.dtype ~k_step:1 ~m:n ~n:t.out_features ~k:t.in_features ()

(* pack_b rounds to the layer's dtype *)
let pack t =
  { src = t.weights;
    wt = Gemm.pack_b (gemm_cfg t ~n:1) (Tensor.transpose t.weights) }

(* The packed W^T of [t.weights]. A record made by [{ fc with weights }]
   shares its cell with [fc], so the cell names the tensor it holds and
   a layer whose weights are another tensor packs them afresh. *)
let packed_weights t =
  match Atomic.get t.packed with
  | Some p when p.src == t.weights -> p.wt
  | _ ->
    let p = pack t in
    Atomic.set t.packed (Some p);
    p.wt

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
  let t =
    { in_features; out_features; weights; bias; act; block; dtype; spec;
      packed = Atomic.make None }
  in
  ignore (packed_weights t);
  t

let slice t ~r0 ~r1 =
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
    let s =
      { t with out_features = rows; weights; bias; packed = Atomic.make None }
    in
    ignore (packed_weights s);
    s
  end

let act_unary = function
  | Linear -> None
  | Relu_act -> Some Tpp_unary.Relu
  | Gelu_act -> Some Tpp_unary.Gelu

(* act(X W^T + b) into columns [col0, col0 + out) of [out]: X is the
   GEMM's A in place (a BF16 layer rounds a copy of it once), the bias
   and [act] are fused on each finished C block *)
let gemm_into ?nthreads t x ~act ~out ~col0 =
  let dx = Tensor.dims x in
  assert (Array.length dx = 2 && dx.(1) = t.in_features);
  (* routed through the spec-resolver hook: with online tuning enabled the
     per-shape cache may substitute a tuned (config, spec) here *)
  let g = Gemm.create_resolved (gemm_cfg t ~n:dx.(0)) t.spec in
  let a =
    if Datatype.equal t.dtype Datatype.F32
       || Datatype.equal (Tensor.dtype x) t.dtype
    then x
    else Tensor.cast x t.dtype
  in
  let bias = t.bias and block = t.block in
  let post ~im:_ ~in_ ~c_block =
    let bias_row =
      Tensor.view_flat bias ~off:(in_ * block) ~rows:1 ~cols:block ~ld:block
    in
    Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Row ~a:c_block
      ~b:bias_row ~out:c_block;
    match act with
    | None -> ()
    | Some op -> Tpp_unary.exec op ~inp:c_block ~out:c_block
  in
  Gemm.run ?nthreads ~post ~col0 g ~a ~b:(packed_weights t) ~c:out

let forward_into ?nthreads t x ~out ~col0 =
  gemm_into ?nthreads t x ~act:(act_unary t.act) ~out ~col0

let forward ?nthreads t x =
  let out = Tensor.create Datatype.F32 [| (Tensor.dims x).(0); t.out_features |] in
  forward_into ?nthreads t x ~out ~col0:0;
  out

type ctx = {
  input : Tensor.t;  (** logical [N x in] *)
  pre_act : Tensor.t;  (** logical [N x out], before activation *)
}

let forward_ctx ?nthreads t x =
  let pre = Tensor.create Datatype.F32 [| (Tensor.dims x).(0); t.out_features |] in
  gemm_into ?nthreads t x ~act:None ~out:pre ~col0:0;
  let y =
    match act_unary t.act with
    | None -> Tensor.copy pre
    | Some op ->
      let y = Tensor.create Datatype.F32 (Tensor.dims pre) in
      Tpp_unary.exec op ~inp:(Tensor.view2d pre) ~out:(Tensor.view2d y);
      y
  in
  (y, { input = x; pre_act = pre })

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
    gemm_logical ?nthreads ~block:t.block ~spec:t.spec (Tensor.transpose dpre)
      ctx.input
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
  done;
  Atomic.set t.packed (Some (pack t))

let flops t ~n =
  2.0 *. float_of_int n *. float_of_int t.in_features
  *. float_of_int t.out_features
