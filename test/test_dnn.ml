(* Tests for the DNN workload library: FC (+backward), attention, BERT
   encoder, LLM decoding with KV cache, ResNet and sparse BERT. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let random_tensor ?(dtype = Datatype.F32) rng dims =
  let t = Tensor.create dtype dims in
  Tensor.fill_random t rng ~scale:1.0;
  t

(* ---- fc ---- *)

let test_fc_forward_matches_reference () =
  let rng = Prng.create 1 in
  let fc = Fc.create ~rng ~block:8 ~in_features:24 ~out_features:16 () in
  let x = random_tensor rng [| 8; 24 |] in
  let y = Fc.forward ~nthreads:2 fc x in
  let wt =
    Tensor.init Datatype.F32 [| 24; 16 |] (fun i ->
        Tensor.get fc.Fc.weights [| i.(1); i.(0) |])
  in
  let expect0 = Reference.matmul x wt in
  let expect =
    Tensor.init Datatype.F32 [| 8; 16 |] (fun i ->
        Tensor.get expect0 i +. Tensor.get fc.Fc.bias [| i.(1) |])
  in
  checkb "fc forward" true (Tensor.approx_equal ~tol:1e-4 y expect)

let test_fc_single_token () =
  (* decode path: one row, block larger than N *)
  let rng = Prng.create 2 in
  let fc = Fc.create ~rng ~block:16 ~in_features:32 ~out_features:32 () in
  let x = random_tensor rng [| 1; 32 |] in
  let y = Fc.forward fc x in
  checki "one row out" 1 (Tensor.dims y).(0)

let test_fc_backward_finite_diff () =
  let rng = Prng.create 3 in
  let fc =
    Fc.create ~rng ~block:8 ~act:Fc.Relu_act ~in_features:8 ~out_features:8 ()
  in
  let x = random_tensor rng [| 8; 8 |] in
  let dy = random_tensor rng [| 8; 8 |] in
  let _, ctx = Fc.forward_ctx fc x in
  let g = Fc.backward fc ctx ~dy in
  let loss x' =
    let y = Fc.forward fc x' in
    let s = ref 0.0 in
    for i = 0 to Tensor.numel y - 1 do
      s := !s +. (Tensor.get_flat y i *. Tensor.get_flat dy i)
    done;
    !s
  in
  let h = 1e-3 in
  List.iter
    (fun (i, j) ->
      let xp = Tensor.copy x and xm = Tensor.copy x in
      Tensor.set xp [| i; j |] (Tensor.get x [| i; j |] +. h);
      Tensor.set xm [| i; j |] (Tensor.get x [| i; j |] -. h);
      let fd = (loss xp -. loss xm) /. (2.0 *. h) in
      Alcotest.(check (float 2e-2)) "d_input" fd (Tensor.get g.Fc.d_input [| i; j |]))
    [ (0, 0); (3, 5); (7, 7) ];
  (* weight gradient *)
  let loss_w w' =
    let fc' = { fc with Fc.weights = w' } in
    let y = Fc.forward fc' x in
    let s = ref 0.0 in
    for i = 0 to Tensor.numel y - 1 do
      s := !s +. (Tensor.get_flat y i *. Tensor.get_flat dy i)
    done;
    !s
  in
  List.iter
    (fun (i, j) ->
      let wp = Tensor.copy fc.Fc.weights and wm = Tensor.copy fc.Fc.weights in
      Tensor.set wp [| i; j |] (Tensor.get fc.Fc.weights [| i; j |] +. h);
      Tensor.set wm [| i; j |] (Tensor.get fc.Fc.weights [| i; j |] -. h);
      let fd = (loss_w wp -. loss_w wm) /. (2.0 *. h) in
      Alcotest.(check (float 2e-2))
        "d_weights" fd
        (Tensor.get g.Fc.d_weights [| i; j |]))
    [ (0, 0); (4, 2) ]

let test_fc_sgd_reduces_loss () =
  let rng = Prng.create 4 in
  let fc = Fc.create ~rng ~block:8 ~in_features:8 ~out_features:8 () in
  let x = random_tensor rng [| 8; 8 |] in
  let target = random_tensor rng [| 8; 8 |] in
  let mse () =
    let y = Fc.forward fc x in
    let s = ref 0.0 in
    for i = 0 to Tensor.numel y - 1 do
      let d = Tensor.get_flat y i -. Tensor.get_flat target i in
      s := !s +. (d *. d)
    done;
    !s
  in
  let before = mse () in
  for _ = 1 to 20 do
    let y, ctx = Fc.forward_ctx fc x in
    let dy =
      Tensor.init Datatype.F32 [| 8; 8 |] (fun i ->
          2.0 *. (Tensor.get y i -. Tensor.get target i))
    in
    let g = Fc.backward fc ctx ~dy in
    Fc.sgd_update fc g ~lr:0.01
  done;
  checkb "loss decreased" true (mse () < 0.5 *. before)

(* The FC forward before activations became the GEMM's A, kept as the
   oracle of the row-major one: W packed as A, X^T as B with the largest
   divisor of the token count up to the block as bn, k_step = 1, the bias
   added on each finished C block, then unpack and transpose. *)
let fc_forward_w_as_a ?nthreads (fc : Fc.t) x =
  let n = (Tensor.dims x).(0) in
  let transpose t0 =
    let d = Tensor.dims t0 in
    Tensor.init (Tensor.dtype t0) [| d.(1); d.(0) |] (fun i ->
        Tensor.get t0 [| i.(1); i.(0) |])
  in
  let rec divisor d = if n mod d = 0 then d else divisor (d - 1) in
  let block = fc.Fc.block in
  let cfg =
    Gemm.make_config ~bm:block ~bn:(divisor (min block n)) ~bk:block
      ~dtype:fc.Fc.dtype ~k_step:1 ~m:fc.Fc.out_features ~n
      ~k:fc.Fc.in_features ()
  in
  let g = Gemm.create cfg fc.Fc.spec in
  let a = Gemm.pack_a cfg fc.Fc.weights in
  let b = Gemm.pack_b cfg (transpose x) in
  let c = Gemm.alloc_c cfg in
  let post ~im ~in_:_ ~c_block =
    let bias_col =
      Tensor.view_flat fc.Fc.bias ~off:(im * block) ~rows:block ~cols:1 ~ld:1
    in
    Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Col ~a:c_block
      ~b:bias_col ~out:c_block
  in
  Gemm.run ?nthreads ~post g ~a ~b ~c;
  let pre = transpose (Gemm.unpack_c cfg c) in
  let act =
    match fc.Fc.act with
    | Fc.Linear -> None
    | Fc.Relu_act -> Some Tpp_unary.Relu
    | Fc.Gelu_act -> Some Tpp_unary.Gelu
  in
  match act with
  | None -> pre
  | Some op ->
    let y = Tensor.create Datatype.F32 (Tensor.dims pre) in
    Tpp_unary.exec op ~inp:(Tensor.view2d pre) ~out:(Tensor.view2d y);
    y

let check_bits what expect got =
  checki (what ^ ": elements") (Tensor.numel expect) (Tensor.numel got);
  for i = 0 to Tensor.numel expect - 1 do
    let e = Int32.bits_of_float (Tensor.get_flat expect i)
    and g = Int32.bits_of_float (Tensor.get_flat got i) in
    if e <> g then
      Alcotest.failf "%s: element %d is %08lx, expected %08lx" what i g e
  done

(* tokens on M (a short last block at every count not a multiple of 16,
   primes included) give each output the bits it had on N *)
let test_fc_rows_match_w_as_a () =
  let rng = Prng.create 41 in
  List.iter
    (fun (dtype, act, (fin, fout)) ->
      let fc =
        Fc.create ~rng ~dtype ~act ~block:16 ~in_features:fin
          ~out_features:fout ()
      in
      for n = 1 to 70 do
        let x = random_tensor rng [| n; fin |] in
        List.iter
          (fun nthreads ->
            check_bits
              (Printf.sprintf "%s %s %d->%d, %d tokens, %d threads"
                 (Datatype.to_string dtype)
                 (match act with
                 | Fc.Linear -> "linear"
                 | Fc.Relu_act -> "relu"
                 | Fc.Gelu_act -> "gelu")
                 fin fout n nthreads)
              (fc_forward_w_as_a ~nthreads fc x)
              (Fc.forward ~nthreads fc x))
          [ 1; 2 ]
      done)
    (List.concat_map
       (fun dtype ->
         List.concat_map
           (fun act -> [ (dtype, act, (32, 64)); (dtype, act, (48, 80)) ])
           [ Fc.Linear; Fc.Relu_act; Fc.Gelu_act ])
       [ Datatype.F32; Datatype.BF16 ])

(* W^T is packed once per weight tensor: new weights must not run on a
   stale packed copy *)
let test_fc_forward_follows_new_weights () =
  let rng = Prng.create 42 in
  let mk () = Fc.create ~rng ~block:8 ~in_features:16 ~out_features:24 () in
  let fc = mk () in
  let x = random_tensor rng [| 5; 16 |] in
  (* a freshly created layer given [w] and [b] *)
  let fresh w b =
    { (mk ()) with Fc.weights = Tensor.copy w; bias = Tensor.copy b }
  in
  let before = Fc.forward fc x in
  let y, ctx = Fc.forward_ctx fc x in
  check_bits "forward_ctx" before y;
  let g = Fc.backward fc ctx ~dy:(random_tensor rng [| 5; 24 |]) in
  Fc.sgd_update fc g ~lr:0.1;
  let after = Fc.forward fc x in
  check_bits "after sgd_update" (Fc.forward (fresh fc.Fc.weights fc.Fc.bias) x)
    after;
  check_bits "after sgd_update, oracle" (fc_forward_w_as_a fc x) after;
  let w = Tensor.copy fc.Fc.weights in
  Tensor.set w [| 3; 7 |] 5.0;
  let fc' = { fc with Fc.weights = w } in
  check_bits "{ fc with weights }" (Fc.forward (fresh w fc.Fc.bias) x)
    (Fc.forward fc' x);
  check_bits "{ fc with weights }, oracle" (fc_forward_w_as_a fc' x)
    (Fc.forward fc' x);
  (* the original layer still runs its own weights *)
  check_bits "original after the copy ran" after (Fc.forward fc x)

(* ---- attention ---- *)

let test_attention_matches_reference () =
  let rng = Prng.create 5 in
  let att = Attention.create ~rng ~block:8 ~hidden:32 ~heads:4 () in
  let x = random_tensor rng [| 16; 32 |] in
  let got = Attention.forward ~nthreads:2 att x in
  let expect = Attention.reference_forward att x in
  checkb "attention" true (Tensor.approx_equal ~tol:1e-4 got expect)

let test_attention_causal () =
  let rng = Prng.create 6 in
  let att = Attention.create ~rng ~block:8 ~hidden:16 ~heads:2 () in
  let x = random_tensor rng [| 8; 16 |] in
  let got = Attention.forward ~causal:true att x in
  let expect = Attention.reference_forward ~causal:true att x in
  checkb "causal attention" true (Tensor.approx_equal ~tol:1e-4 got expect)

let test_attention_causal_prefix_invariance () =
  (* with causal masking, output at position i only depends on tokens
     <= i: extending the sequence must not change earlier outputs *)
  let rng = Prng.create 7 in
  let att = Attention.create ~rng ~block:8 ~hidden:16 ~heads:2 () in
  let x8 = random_tensor rng [| 8; 16 |] in
  let x6 = Tensor.init Datatype.F32 [| 6; 16 |] (fun i -> Tensor.get x8 i) in
  let y8 = Attention.forward ~causal:true att x8 in
  let y6 = Attention.forward ~causal:true att x6 in
  let y8_prefix =
    Tensor.init Datatype.F32 [| 6; 16 |] (fun i -> Tensor.get y8 i)
  in
  checkb "prefix invariant" true (Tensor.approx_equal ~tol:1e-4 y8_prefix y6)

(* ---- bert ---- *)

let test_bert_layer_matches_reference () =
  let rng = Prng.create 8 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let x = random_tensor rng [| 16; Bert.tiny_config.Bert.hidden |] in
  let layer = bert.Bert.encoder.(0) in
  let got = Bert.encoder_layer ~nthreads:2 bert layer x in
  let expect = Bert.reference_encoder_layer bert layer x in
  checkb "bert encoder layer" true (Tensor.approx_equal ~tol:1e-3 got expect)

let test_bert_forward_shapes () =
  let rng = Prng.create 9 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let ids = Array.init 16 (fun i -> i mod Bert.tiny_config.Bert.vocab) in
  let y = Bert.forward ~rng bert ids in
  checkb "finite outputs" true
    (List.for_all (fun v -> Float.is_finite v) (Tensor.to_list y));
  Alcotest.(check (list int))
    "shape"
    [ 16; Bert.tiny_config.Bert.hidden ]
    (Array.to_list (Tensor.dims y))

let test_bert_flops_accounting () =
  let cfg = Bert.base_config in
  (* one layer at seq 384: 4 proj + attention + FFN, must match the
     closed form *)
  let s = 384.0 and h = 768.0 and i = 3072.0 in
  let expect =
    (4.0 *. 2.0 *. s *. h *. h)
    +. (2.0 *. 2.0 *. s *. s *. h)
    +. (2.0 *. 2.0 *. s *. h *. i)
  in
  Alcotest.(check (float 1.0)) "layer flops" expect
    (Bert.layer_flops cfg ~seq:384);
  Alcotest.(check (float 1.0))
    "forward = layers * layer"
    (12.0 *. expect)
    (Bert.forward_flops cfg ~seq:384)

(* ---- llm ---- *)

let test_llm_cache_matches_full_forward () =
  let rng = Prng.create 10 in
  let llm = Llm.create ~rng ~block:8 Llm.tiny in
  let ids = Array.init 12 (fun i -> i * 3 mod Llm.tiny.Llm.vocab) in
  let emb = Llm.embed llm ids in
  (* full forward *)
  let full = Llm.forward_full llm emb in
  (* prefill 8 then decode 4 *)
  let cache = Llm.new_cache llm in
  let emb8 = Tensor.init Datatype.F32 [| 8; Llm.tiny.Llm.hidden |] (fun i -> Tensor.get emb i) in
  let _ = Llm.prefill llm cache emb8 in
  checki "cache after prefill" 8 (Llm.cache_len cache);
  let last = ref None in
  for t = 8 to 11 do
    let e =
      Tensor.init Datatype.F32 [| 1; Llm.tiny.Llm.hidden |] (fun i ->
          Tensor.get emb [| t; i.(1) |])
    in
    last := Some (Llm.decode_step llm cache e)
  done;
  checki "cache after decode" 12 (Llm.cache_len cache);
  let got = Option.get !last in
  let expect =
    Tensor.init Datatype.F32 [| 1; Llm.tiny.Llm.hidden |] (fun i ->
        Tensor.get full [| 11; i.(1) |])
  in
  checkb "incremental == full" true (Tensor.approx_equal ~tol:1e-3 got expect)

let test_llm_embed_bits () =
  (* element (i, j) is the first uniform draw of a generator seeded
     [ids.(i) * 7919 + j] *)
  let llm = Llm.create ~rng:(Prng.create 10) ~block:8 Llm.tiny in
  let vocab = Llm.tiny.Llm.vocab in
  let check ids =
    let got = Llm.embed llm ids in
    let expect =
      Tensor.init Datatype.F32
        [| Array.length ids; Llm.tiny.Llm.hidden |]
        (fun i ->
          Prng.uniform (Prng.create ((ids.(i.(0)) * 7919) + i.(1))) ~scale:0.5)
    in
    for k = 0 to Tensor.numel expect - 1 do
      let bits t = Int32.bits_of_float (Tensor.get_flat t k) in
      if bits got <> bits expect then
        Alcotest.failf "embed element %d: %h, expected %h" k
          (Tensor.get_flat got k) (Tensor.get_flat expect k)
    done
  in
  check [| 0 |];
  check [| 1 |];
  check [| vocab - 1 |];
  check (Array.init 24 (fun i -> (7 + (3 * i)) mod vocab))

let test_llm_cache_recycling () =
  (* reset_cache rewinds without freeing: a recycled cache must produce
     bit-identical results to a fresh one, and must not reallocate when
     the second sequence fits the grown capacity *)
  let rng = Prng.create 10 in
  let llm = Llm.create ~rng ~block:8 Llm.tiny in
  let ids = Array.init 10 (fun i -> (i * 5) mod Llm.tiny.Llm.vocab) in
  let emb = Llm.embed llm ids in
  let run cache =
    let first = Llm.prefill llm cache emb in
    let e =
      Tensor.init Datatype.F32 [| 1; Llm.tiny.Llm.hidden |] (fun i ->
          Tensor.get emb [| 0; i.(1) |])
    in
    let next = Llm.decode_step llm cache e in
    (first, next)
  in
  let cache = Llm.new_cache ~cap:4 llm in
  let f1, n1 = run cache in
  checki "cache holds the sequence" 11 (Llm.cache_len cache);
  let grown = Llm.cache_capacity cache in
  checkb "capacity grew past the initial 4 rows" true (grown >= 11);
  Llm.reset_cache cache;
  checki "reset rewinds to empty" 0 (Llm.cache_len cache);
  checki "reset keeps the buffers" grown (Llm.cache_capacity cache);
  let f2, n2 = run cache in
  checki "capacity untouched on the second pass" grown
    (Llm.cache_capacity cache);
  checkb "recycled prefill bit-identical" true
    (Tensor.approx_equal ~tol:0.0 f1 f2);
  checkb "recycled decode bit-identical" true
    (Tensor.approx_equal ~tol:0.0 n1 n2)

let test_llm_cache_truncate_bit_identical () =
  (* truncate_cache rewinds a partially-appended step: re-running the
     step after the rewind must be bit-identical to never having failed
     (the property serve's retry path depends on) *)
  let rng = Prng.create 10 in
  let llm = Llm.create ~rng ~block:8 Llm.tiny in
  let ids = Array.init 6 (fun i -> (i * 5) mod Llm.tiny.Llm.vocab) in
  let emb = Llm.embed llm ids in
  let tok =
    Tensor.init Datatype.F32 [| 1; Llm.tiny.Llm.hidden |] (fun i ->
        Tensor.get emb [| 0; i.(1) |])
  in
  (* clean run *)
  let c1 = Llm.new_cache llm in
  let _ = Llm.prefill llm c1 emb in
  let clean = Llm.decode_step llm c1 tok in
  (* interrupted run: decode once, rewind as a failed attempt would, redo *)
  let c2 = Llm.new_cache llm in
  let _ = Llm.prefill llm c2 emb in
  let pre = Llm.cache_len c2 in
  let _ = Llm.decode_step llm c2 tok in
  Llm.truncate_cache c2 pre;
  checki "rewound to pre-step length" pre (Llm.cache_len c2);
  let redone = Llm.decode_step llm c2 tok in
  checki "re-appended one row" (pre + 1) (Llm.cache_len c2);
  checkb "retried step bit-identical" true
    (Tensor.approx_equal ~tol:0.0 clean redone)

let test_llm_flops_model () =
  (* decode flops must be ~ prefill flops / n for large shapes (per
     token), modulo attention's quadratic term *)
  let cfg = Llm.gptj_6b in
  let pf = Llm.prefill_flops cfg ~n_in:1024 in
  let df = Llm.decode_flops cfg ~past:1024 in
  checkb "prefill >> decode" true (pf > 100.0 *. df);
  (* 6B params * 2 bytes *)
  let gb = Llm.param_bytes cfg Datatype.BF16 /. 1e9 in
  checkb "GPTJ ~ 6B params (12GB bf16)" true (gb > 11.0 && gb < 14.0)

let test_llama_param_count () =
  let gb = Llm.param_bytes Llm.llama2_13b Datatype.BF16 /. 1e9 in
  checkb "Llama2-13B ~ 13B params (26GB bf16)" true (gb > 24.0 && gb < 28.0)

(* ---- resnet ---- *)

let test_resnet_matches_reference () =
  let rng = Prng.create 11 in
  let net = Resnet.create ~rng ~channels:8 ~blocks:2 () in
  let images = random_tensor rng [| 2; 3; 16; 16 |] in
  let got = Resnet.forward ~nthreads:2 net images in
  let expect = Resnet.reference_forward net images in
  checkb "resnet forward" true (Tensor.approx_equal ~tol:1e-3 got expect)

let test_resnet50_shape_table () =
  let shapes = Resnet.conv_shapes in
  checkb "about 20 unique shapes" true (List.length shapes >= 20);
  let total = List.fold_left (fun a s -> a + s.Resnet.repeats) 0 shapes in
  checkb "~53 convolutions" true (total >= 50 && total <= 56);
  (* ResNet-50 forward conv flops at N=1 is ~4 GFLOPs x 2 (MACs->flops
     convention: ~8.2e9) *)
  let f = Resnet.total_conv_flops ~n:1 in
  checkb "~7-9 GFLOPs" true (f > 6.5e9 && f < 9.5e9)

(* ---- sparse bert ---- *)

let test_sparse_bert_matches_dense_equivalent () =
  let rng = Prng.create 12 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let sp = Sparse_bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.5 bert in
  let x = random_tensor rng [| 16; Bert.tiny_config.Bert.hidden |] in
  let sparse = Sparse_bert.forward sp x in
  let dense = Sparse_bert.dense_equivalent_forward sp x in
  checkb "sparse == dense on pruned weights" true
    (Tensor.approx_equal ~tol:1e-3 sparse dense)

let test_sparse_bert_sparsity_target () =
  let rng = Prng.create 13 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let sp = Sparse_bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.8 bert in
  let s = Sparse_bert.achieved_sparsity sp in
  checkb "sparsity ~0.8" true (Float.abs (s -. 0.8) < 0.05)

let test_sparse_bert_effective_flops_scale () =
  let rng = Prng.create 14 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let sp80 = Sparse_bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.8 bert in
  let sp0 = Sparse_bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.0 bert in
  let f80 = Sparse_bert.layer_effective_flops sp80 ~seq:64 in
  let f0 = Sparse_bert.layer_effective_flops sp0 ~seq:64 in
  checkb "80% sparsity cuts flops" true (f80 < 0.45 *. f0)

let () =
  Alcotest.run ~and_exit:false "dnn"
    [
      ( "fc",
        [
          Alcotest.test_case "forward" `Quick test_fc_forward_matches_reference;
          Alcotest.test_case "single token" `Quick test_fc_single_token;
          Alcotest.test_case "backward fd" `Quick test_fc_backward_finite_diff;
          Alcotest.test_case "sgd" `Quick test_fc_sgd_reduces_loss;
          Alcotest.test_case "tokens on M == W as A, bit for bit" `Quick
            test_fc_rows_match_w_as_a;
          Alcotest.test_case "forward follows new weights" `Quick
            test_fc_forward_follows_new_weights;
        ] );
      ( "attention",
        [
          Alcotest.test_case "reference" `Quick test_attention_matches_reference;
          Alcotest.test_case "causal" `Quick test_attention_causal;
          Alcotest.test_case "prefix invariance" `Quick
            test_attention_causal_prefix_invariance;
        ] );
      ( "bert",
        [
          Alcotest.test_case "layer reference" `Quick
            test_bert_layer_matches_reference;
          Alcotest.test_case "forward shapes" `Quick test_bert_forward_shapes;
          Alcotest.test_case "flops" `Quick test_bert_flops_accounting;
        ] );
      ( "llm",
        [
          Alcotest.test_case "kv cache == full" `Quick
            test_llm_cache_matches_full_forward;
          Alcotest.test_case "kv cache recycling" `Quick
            test_llm_cache_recycling;
          Alcotest.test_case "kv cache truncate (retry rewind)" `Quick
            test_llm_cache_truncate_bit_identical;
          Alcotest.test_case "flop model" `Quick test_llm_flops_model;
          Alcotest.test_case "llama params" `Quick test_llama_param_count;
          Alcotest.test_case "embed == Prng.uniform, bit for bit" `Quick
            test_llm_embed_bits;
        ] );
      ( "resnet",
        [
          Alcotest.test_case "forward reference" `Quick
            test_resnet_matches_reference;
          Alcotest.test_case "shape table" `Quick test_resnet50_shape_table;
        ] );
      ( "sparse-bert",
        [
          Alcotest.test_case "sparse == dense equivalent" `Quick
            test_sparse_bert_matches_dense_equivalent;
          Alcotest.test_case "sparsity target" `Quick
            test_sparse_bert_sparsity_target;
          Alcotest.test_case "effective flops" `Quick
            test_sparse_bert_effective_flops_scale;
        ] );
    ]

(* ---- dlrm (the paper's §VII future-work workload) ---- *)

let dlrm_inputs rng (cfg : Dlrm.config) batch =
  let dense = Tensor.create Datatype.F32 [| batch; cfg.Dlrm.dense_features |] in
  Tensor.fill_random dense rng ~scale:1.0;
  let sparse =
    Array.init cfg.Dlrm.num_tables (fun f ->
        Array.init batch (fun i ->
            (f + (i * 13)) mod cfg.Dlrm.rows_per_table))
  in
  (dense, sparse)

let test_dlrm_matches_reference () =
  let rng = Prng.create 15 in
  let cfg = Dlrm.default_config in
  let dlrm = Dlrm.create ~rng cfg in
  let dense, sparse = dlrm_inputs rng cfg 16 in
  let got = Dlrm.forward ~nthreads:2 dlrm ~dense ~sparse in
  let expect = Dlrm.reference_forward dlrm ~dense ~sparse in
  checkb "dlrm forward" true (Tensor.approx_equal ~tol:1e-4 got expect)

let test_dlrm_probabilities () =
  let rng = Prng.create 16 in
  let dlrm = Dlrm.create ~rng Dlrm.default_config in
  let dense, sparse = dlrm_inputs rng Dlrm.default_config 8 in
  let p = Dlrm.forward dlrm ~dense ~sparse in
  Alcotest.(check (list int)) "shape" [ 8; 1 ] (Array.to_list (Tensor.dims p));
  checkb "probabilities in (0,1)" true
    (List.for_all (fun v -> v > 0.0 && v < 1.0) (Tensor.to_list p))

let test_dlrm_interaction_width () =
  let cfg = Dlrm.default_config in
  (* embed_dim + C(num_tables+1, 2) = 16 + C(9,2) = 16 + 36 *)
  Alcotest.(check int) "interaction features" 52 (Dlrm.interaction_features cfg)

let test_dlrm_embedding_sensitivity () =
  (* changing a sparse id must change the prediction of that item only *)
  let rng = Prng.create 17 in
  let cfg = Dlrm.default_config in
  let dlrm = Dlrm.create ~rng cfg in
  let dense, sparse = dlrm_inputs rng cfg 4 in
  let p1 = Dlrm.forward dlrm ~dense ~sparse in
  let sparse2 = Array.map Array.copy sparse in
  sparse2.(0).(2) <- (sparse.(0).(2) + 7) mod cfg.Dlrm.rows_per_table;
  let p2 = Dlrm.forward dlrm ~dense ~sparse:sparse2 in
  checkb "item 2 changed" true
    (Float.abs (Tensor.get p1 [| 2; 0 |] -. Tensor.get p2 [| 2; 0 |]) > 1e-9);
  checkb "item 0 unchanged" true
    (Tensor.get p1 [| 0; 0 |] = Tensor.get p2 [| 0; 0 |])

let () =
  Alcotest.run "dnn-dlrm"
    [
      ( "dlrm",
        [
          Alcotest.test_case "matches reference" `Quick
            test_dlrm_matches_reference;
          Alcotest.test_case "probabilities" `Quick test_dlrm_probabilities;
          Alcotest.test_case "interaction width" `Quick
            test_dlrm_interaction_width;
          Alcotest.test_case "embedding sensitivity" `Quick
            test_dlrm_embedding_sensitivity;
        ] );
    ]
