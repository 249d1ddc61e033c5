module View = Tensor.View

type conv_shape = {
  layer_id : int;
  c : int;
  k : int;
  h : int;
  w : int;
  r : int;
  s : int;
  stride : int;
  pad : int;
  repeats : int;
}

let shape layer_id (c, k, h, w, r, s, stride, pad, repeats) =
  { layer_id; c; k; h; w; r; s; stride; pad; repeats }

(* ResNet-50 v1.5 unique convolution shapes on 224x224 inputs. (h, w) are
   input spatial dims; repeats counts occurrences across the network
   (including downsample projections that share a shape). *)
let conv_shapes =
  List.mapi shape
    [
      (3, 64, 224, 224, 7, 7, 2, 3, 1);
      (* conv2_x, 56x56 *)
      (64, 64, 56, 56, 1, 1, 1, 0, 1);
      (64, 64, 56, 56, 3, 3, 1, 1, 3);
      (64, 256, 56, 56, 1, 1, 1, 0, 4);
      (256, 64, 56, 56, 1, 1, 1, 0, 2);
      (* conv3_x, 28x28 *)
      (256, 128, 56, 56, 1, 1, 1, 0, 1);
      (128, 128, 56, 56, 3, 3, 2, 1, 1);
      (256, 512, 56, 56, 1, 1, 2, 0, 1);
      (128, 512, 28, 28, 1, 1, 1, 0, 4);
      (512, 128, 28, 28, 1, 1, 1, 0, 3);
      (128, 128, 28, 28, 3, 3, 1, 1, 3);
      (* conv4_x, 14x14 *)
      (512, 256, 28, 28, 1, 1, 1, 0, 1);
      (256, 256, 28, 28, 3, 3, 2, 1, 1);
      (512, 1024, 28, 28, 1, 1, 2, 0, 1);
      (256, 1024, 14, 14, 1, 1, 1, 0, 6);
      (1024, 256, 14, 14, 1, 1, 1, 0, 5);
      (256, 256, 14, 14, 3, 3, 1, 1, 5);
      (* conv5_x, 7x7 *)
      (1024, 512, 14, 14, 1, 1, 1, 0, 1);
      (512, 512, 14, 14, 3, 3, 2, 1, 1);
      (1024, 2048, 14, 14, 1, 1, 2, 0, 1);
      (512, 2048, 7, 7, 1, 1, 1, 0, 3);
      (2048, 512, 7, 7, 1, 1, 1, 0, 2);
      (512, 512, 7, 7, 3, 3, 1, 1, 2);
    ]

let conv_shape_flops sh ~n =
  let p = ((sh.h + (2 * sh.pad) - sh.r) / sh.stride) + 1 in
  let q = ((sh.w + (2 * sh.pad) - sh.s) / sh.stride) + 1 in
  2.0 *. float_of_int n *. float_of_int sh.k *. float_of_int p
  *. float_of_int q *. float_of_int sh.c *. float_of_int sh.r
  *. float_of_int sh.s

let total_conv_flops ~n =
  List.fold_left
    (fun acc sh -> acc +. (float_of_int sh.repeats *. conv_shape_flops sh ~n))
    0.0 conv_shapes

let train_step_flops ~n = 3.0 *. total_conv_flops ~n

(* ---- executable residual CNN ---- *)

type bn = { scale : Tensor.t; shift : Tensor.t }  (* per channel, [1 x k] *)

type conv_layer = {
  conv : Conv.t;
  weights : Tensor.t;  (** blocked *)
  bn : bn;
  relu : bool;
}

type t = {
  channels : int;
  classes : int;
  stem : conv_layer;
  blocks : (conv_layer * conv_layer) array;
  fc : Fc.t;
  dtype : Datatype.t;
}

let channels t = t.channels
let classes t = t.classes
let dtype t = t.dtype

let make_bn rng k =
  {
    scale =
      Tensor.init Datatype.F32 [| 1; k |] (fun _ ->
          1.0 +. Prng.uniform rng ~scale:0.1);
    shift = Tensor.random Datatype.F32 [| 1; k |] rng ~scale:0.1;
  }

let make_conv ~rng ~dtype ~spec ~relu ~n ~c ~k ~h ~w =
  let cfg =
    Conv.make_config ~stride:1 ~pad:1 ~bc:(min 8 c) ~bk:8 ~dtype ~n ~c ~k ~h
      ~w ~r:3 ~s:3 ()
  in
  let conv = Conv.create cfg spec in
  let scale = sqrt (2.0 /. float_of_int (c * 9)) in
  let logical = Tensor.random dtype [| k; c; 3; 3 |] rng ~scale in
  { conv; weights = Conv.pack_weights cfg logical; bn = make_bn rng k;
    relu }

(* fused batchnorm(+ReLU) post-op: the conv post hook hands one
   [w_step x bk] block whose columns are output channels *)
let bn_relu_post (layer : conv_layer) ~n:_ ~kb ~p:_ ~q:_ ~block =
  let bk = block.View.cols in
  let sc =
    Tensor.view_flat layer.bn.scale ~off:(kb * bk) ~rows:1 ~cols:bk ~ld:bk
  in
  let sh =
    Tensor.view_flat layer.bn.shift ~off:(kb * bk) ~rows:1 ~cols:bk ~ld:bk
  in
  Tpp_binary.exec Tpp_binary.Mul ~bcast:Tpp_binary.Row ~a:block ~b:sc ~out:block;
  Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Row ~a:block ~b:sh ~out:block;
  if layer.relu then Tpp_unary.exec Tpp_unary.Relu ~inp:block ~out:block

let create ~rng ?(dtype = Datatype.F32) ?(spec = Conv.default_spec)
    ?(classes = 16) ~channels ~blocks () =
  if channels mod 8 <> 0 then invalid_arg "Resnet.create: channels mod 8";
  (* the executable network keeps one spatial resolution; `create`'s [n],
     [h], [w] are fixed by the first forward call — use canonical 16x16 *)
  let n = 2 and h = 16 and w = 16 in
  let stem = make_conv ~rng ~dtype ~spec ~relu:true ~n ~c:3 ~k:channels ~h ~w in
  let blocks =
    Array.init blocks (fun _ ->
        ( make_conv ~rng ~dtype ~spec ~relu:true ~n ~c:channels ~k:channels ~h
            ~w,
          make_conv ~rng ~dtype ~spec ~relu:false ~n ~c:channels ~k:channels
            ~h ~w ))
  in
  let fc =
    Fc.create ~rng ~dtype ~block:8 ~in_features:channels
      ~out_features:classes ()
  in
  { channels; classes; stem; blocks; fc; dtype }

let run_conv ?nthreads (layer : conv_layer) x =
  let cfg = Conv.config layer.conv in
  let packed = Conv.pack_input cfg x in
  let out = Conv.alloc_output cfg in
  Conv.run ?nthreads ~post:(bn_relu_post layer) layer.conv ~input:packed
    ~weights:layer.weights ~output:out;
  Conv.unpack_output cfg out

let relu_inplace x =
  let v =
    Tensor.view_flat x ~off:0 ~rows:1 ~cols:(Tensor.numel x)
      ~ld:(Tensor.numel x)
  in
  Tpp_unary.exec Tpp_unary.Relu ~inp:v ~out:v

let forward ?nthreads t images =
  let x = run_conv ?nthreads t.stem images in
  let x =
    Array.fold_left
      (fun x (c1, c2) ->
        let y = run_conv ?nthreads c1 x in
        let y = run_conv ?nthreads c2 y in
        (* residual add + relu *)
        let flat a =
          Tensor.view_flat a ~off:0 ~rows:1 ~cols:(Tensor.numel a)
            ~ld:(Tensor.numel a)
        in
        Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Full ~a:(flat y)
          ~b:(flat x) ~out:(flat y);
        relu_inplace y;
        y)
      x t.blocks
  in
  let pooled = Reference.global_avgpool x in
  Fc.forward ?nthreads t.fc pooled

let reference_conv (layer : conv_layer) x =
  let cfg = Conv.config layer.conv in
  let w =
    Tensor.init Datatype.F32
      [| cfg.Conv.k; cfg.Conv.c; 3; 3 |]
      (fun i ->
        Tensor.get layer.weights
          [|
            i.(0) / cfg.Conv.bk;
            i.(1) / cfg.Conv.bc;
            i.(2);
            i.(3);
            i.(1) mod cfg.Conv.bc;
            i.(0) mod cfg.Conv.bk;
          |])
  in
  let y = Reference.conv2d ~stride:1 ~pad:1 x w in
  Tensor.init Datatype.F32 (Tensor.dims y) (fun i ->
      let ch = i.(1) in
      let v =
        (Tensor.get y i *. Tensor.get layer.bn.scale [| 0; ch |])
        +. Tensor.get layer.bn.shift [| 0; ch |]
      in
      if layer.relu then Reference.relu v else v)

let reference_forward t images =
  let x = reference_conv t.stem images in
  let x =
    Array.fold_left
      (fun x (c1, c2) ->
        let y = reference_conv c1 x in
        let y = reference_conv c2 y in
        Tensor.init Datatype.F32 (Tensor.dims y) (fun i ->
            Reference.relu (Tensor.get y i +. Tensor.get x i)))
      x t.blocks
  in
  let pooled = Reference.global_avgpool x in
  let fc = t.fc in
  let wt =
    Tensor.init Datatype.F32 [| fc.Fc.in_features; fc.Fc.out_features |]
      (fun i -> Tensor.get fc.Fc.weights [| i.(1); i.(0) |])
  in
  let y = Reference.matmul pooled wt in
  Tensor.init Datatype.F32 (Tensor.dims y) (fun i ->
      Tensor.get y i +. Tensor.get fc.Fc.bias [| i.(1) |])
