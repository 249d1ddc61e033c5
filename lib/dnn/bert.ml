type config = {
  hidden : int;
  heads : int;
  intermediate : int;
  layers : int;
  vocab : int;
  max_seq : int;
}

let base_config =
  { hidden = 768; heads = 12; intermediate = 3072; layers = 12; vocab = 30522;
    max_seq = 512 }

let large_config =
  { hidden = 1024; heads = 16; intermediate = 4096; layers = 24;
    vocab = 30522; max_seq = 512 }

let tiny_config =
  { hidden = 64; heads = 4; intermediate = 128; layers = 2; vocab = 100;
    max_seq = 64 }

type layer = {
  attention : Attention.t;
  att_gamma : Tensor.t;
  att_beta : Tensor.t;
  intermediate_fc : Fc.t;
  out_fc : Fc.t;
  out_gamma : Tensor.t;
  out_beta : Tensor.t;
}

type t = {
  cfg : config;
  token_embedding : Tensor.t;
  position_embedding : Tensor.t;
  emb_gamma : Tensor.t;
  emb_beta : Tensor.t;
  encoder : layer array;
}

let ln_params rng hidden =
  let gamma =
    Tensor.init Datatype.F32 [| 1; hidden |] (fun _ ->
        1.0 +. Prng.uniform rng ~scale:0.02)
  in
  let beta = Tensor.random Datatype.F32 [| 1; hidden |] rng ~scale:0.02 in
  (gamma, beta)

let create ~rng ?(dtype = Datatype.F32) ?(block = 32) ?(spec = Gemm.default_spec)
    cfg =
  let mk_layer () =
    let attention =
      Attention.create ~rng ~dtype ~block ~spec ~hidden:cfg.hidden
        ~heads:cfg.heads ()
    in
    let att_gamma, att_beta = ln_params rng cfg.hidden in
    let intermediate_fc =
      Fc.create ~rng ~dtype ~block ~spec ~act:Fc.Gelu_act
        ~in_features:cfg.hidden ~out_features:cfg.intermediate ()
    in
    let out_fc =
      Fc.create ~rng ~dtype ~block ~spec ~in_features:cfg.intermediate
        ~out_features:cfg.hidden ()
    in
    let out_gamma, out_beta = ln_params rng cfg.hidden in
    { attention; att_gamma; att_beta; intermediate_fc; out_fc; out_gamma;
      out_beta }
  in
  let emb scale rows = Tensor.random Datatype.F32 [| rows; cfg.hidden |] rng ~scale in
  let emb_gamma, emb_beta = ln_params rng cfg.hidden in
  {
    cfg;
    token_embedding = emb 0.05 cfg.vocab;
    position_embedding = emb 0.05 cfg.max_seq;
    emb_gamma;
    emb_beta;
    encoder = Array.init cfg.layers (fun _ -> mk_layer ());
  }

let embed t ids =
  let seq = Array.length ids in
  assert (seq <= t.cfg.max_seq);
  let x =
    Tensor.init Datatype.F32 [| seq; t.cfg.hidden |] (fun i ->
        Tensor.get t.token_embedding [| ids.(i.(0)); i.(1) |]
        +. Tensor.get t.position_embedding [| i.(0); i.(1) |])
  in
  let y = Tensor.create Datatype.F32 [| seq; t.cfg.hidden |] in
  Blocks.layernorm_rows_nostats ~eps:1e-12 ~inp:(Tensor.view2d x)
    ~gamma:(Tensor.view2d t.emb_gamma) ~beta:(Tensor.view2d t.emb_beta)
    ~out:(Tensor.view2d y);
  y

(* dense + residual add + layernorm: the Listing 6 fusion (inference mode,
   dropout off) *)
let output_block ?nthreads fc gamma beta ~residual x =
  let dense = Fc.forward ?nthreads fc x in
  Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Full
    ~a:(Tensor.view2d dense) ~b:(Tensor.view2d residual)
    ~out:(Tensor.view2d dense);
  let y = Tensor.create Datatype.F32 (Tensor.dims dense) in
  Blocks.layernorm_rows_nostats ~eps:1e-12 ~inp:(Tensor.view2d dense)
    ~gamma:(Tensor.view2d gamma) ~beta:(Tensor.view2d beta)
    ~out:(Tensor.view2d y);
  y

let encoder_layer ?nthreads layer x =
  (* Bert-Self-Attention: the Q, K and V projections, then attention *)
  let att = layer.attention in
  let q, k, v = Attention.project ?nthreads att x in
  let ctx = Attention.attend ?nthreads ~heads:att.Attention.heads q k v in
  (* Bert-SelfOutput: the output projection + residual + layernorm *)
  let x1 =
    output_block ?nthreads att.Attention.wo layer.att_gamma layer.att_beta
      ~residual:x ctx
  in
  (* Bert-Intermediate: dense + GELU (fused in the FC post-op) *)
  let inter = Fc.forward ?nthreads layer.intermediate_fc x1 in
  (* Bert-Output: dense + residual + layernorm *)
  output_block ?nthreads layer.out_fc layer.out_gamma layer.out_beta
    ~residual:x1 inter

let encode ?nthreads t x =
  Array.fold_left (fun x l -> encoder_layer ?nthreads l x) x t.encoder

let forward ?nthreads t ids = encode ?nthreads t (embed t ids)

(* a layer's FCs, and the layer with [f] applied to each *)
let fcs l =
  let a = l.attention in
  [ a.Attention.wq; a.wk; a.wv; a.wo; l.intermediate_fc; l.out_fc ]

let map_fcs f l =
  let a = l.attention in
  { l with
    attention =
      { a with Attention.wq = f a.Attention.wq; wk = f a.wk; wv = f a.wv;
        wo = f a.wo };
    intermediate_fc = f l.intermediate_fc;
    out_fc = f l.out_fc }

let sparsify ~bm ~bk ~sparsity t =
  let map f m = { m with encoder = Array.map (map_fcs f) m.encoder } in
  let sparse = map (Fc.sparsify ~bm ~bk ~sparsity) t in
  (sparse, map (fun (fc : Fc.t) -> Fc.with_weights fc fc.Fc.weights) sparse)

(* the fraction of an FC's blocks that are not stored *)
let fc_sparsity (fc : Fc.t) =
  match fc.Fc.kernel with
  | Fc.Dense _ -> 0.0
  | Fc.Block_sparse w -> Bcsc.sparsity w

let achieved_sparsity t =
  let all = Array.to_list t.encoder |> List.concat_map fcs in
  List.fold_left (fun acc fc -> acc +. fc_sparsity fc) 0.0 all
  /. float_of_int (List.length all)

let layer_effective_flops t ~seq =
  let s = float_of_int seq in
  let fc_flops acc (fc : Fc.t) =
    acc
    +. 2.0 *. s
       *. float_of_int fc.Fc.in_features
       *. float_of_int fc.Fc.out_features
       *. (1.0 -. fc_sparsity fc)
  in
  List.fold_left fc_flops 0.0 (fcs t.encoder.(0))
  +. (2.0 *. 2.0 *. s *. s *. float_of_int t.cfg.hidden)

(* naive reference for one layer *)
let reference_encoder_layer layer x =
  let ln x gamma beta =
    let cols = (Tensor.dims x).(1) in
    let g = Array.init cols (fun j -> Tensor.get gamma [| 0; j |]) in
    let b = Array.init cols (fun j -> Tensor.get beta [| 0; j |]) in
    Reference.layernorm_rows ~eps:1e-12 x g b
  in
  let fc_ref (fc : Fc.t) act x =
    let wt =
      Tensor.init Datatype.F32 [| fc.Fc.in_features; fc.Fc.out_features |]
        (fun i -> Tensor.get fc.Fc.weights [| i.(1); i.(0) |])
    in
    let y = Reference.matmul x wt in
    Tensor.init Datatype.F32 (Tensor.dims y) (fun i ->
        act (Tensor.get y i +. Tensor.get fc.Fc.bias [| i.(1) |]))
  in
  let add a b =
    Tensor.init Datatype.F32 (Tensor.dims a) (fun i ->
        Tensor.get a i +. Tensor.get b i)
  in
  let att = Attention.reference_forward layer.attention x in
  let x1 = ln (add att x) layer.att_gamma layer.att_beta in
  let inter = fc_ref layer.intermediate_fc Reference.gelu x1 in
  ln (add (fc_ref layer.out_fc Fun.id inter) x1) layer.out_gamma layer.out_beta

let layer_flops cfg ~seq =
  let h = float_of_int cfg.hidden
  and i = float_of_int cfg.intermediate
  and s = float_of_int seq in
  (* 4 attention projections + scores + context + 2 FFN matmuls *)
  (4.0 *. 2.0 *. s *. h *. h)
  +. (2.0 *. 2.0 *. s *. s *. h)
  +. (2.0 *. 2.0 *. s *. h *. i)

let forward_flops cfg ~seq = float_of_int cfg.layers *. layer_flops cfg ~seq

let train_step_flops cfg ~seq ~batch =
  3.0 *. float_of_int batch *. forward_flops cfg ~seq
