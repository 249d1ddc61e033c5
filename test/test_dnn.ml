(* Tests for the DNN workload library: FC, attention, BERT encoder, LLM
   decoding with KV cache, ResNet and block-sparse BERT. *)

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

(* W^T is packed when a layer is built: a layer made with new weights
   runs them, and the layer it was made from keeps its own *)
let test_fc_forward_follows_new_weights () =
  let rng = Prng.create 42 in
  let fc = Fc.create ~rng ~block:8 ~in_features:16 ~out_features:24 () in
  let x = random_tensor rng [| 5; 16 |] in
  let before = Fc.forward fc x in
  let w = Tensor.copy fc.Fc.weights in
  Tensor.set w [| 3; 7 |] 5.0;
  let fc' = Fc.with_weights fc w in
  check_bits "with_weights, oracle" (fc_forward_w_as_a fc' x)
    (Fc.forward fc' x);
  check_bits "original after the copy ran" before (Fc.forward fc x)

(* a block-sparse layer runs Block-SpMM; with_weights on it builds the
   dense layer on the same (pruned) weights, and nothing slices it *)
let test_fc_block_sparse_with_weights_dense () =
  let rng = Prng.create 43 in
  let fc = Fc.create ~rng ~block:8 ~in_features:16 ~out_features:24 () in
  let sp = Fc.sparsify ~bm:8 ~bk:4 ~sparsity:0.5 fc in
  let is_dense (fc : Fc.t) =
    match fc.Fc.kernel with Fc.Dense _ -> true | Fc.Block_sparse _ -> false
  in
  checkb "sparsify builds Block_sparse" false (is_dense sp);
  let d = Fc.with_weights sp sp.Fc.weights in
  checkb "with_weights builds Dense" true (is_dense d);
  let x = random_tensor rng [| 5; 16 |] in
  check_bits "dense equivalent, oracle" (fc_forward_w_as_a d x)
    (Fc.forward d x);
  checkb "dense equivalent == block-sparse" true
    (Tensor.approx_equal ~tol:1e-4 (Fc.forward sp x) (Fc.forward d x))

let test_fc_block_sparse_slice_rejected () =
  let rng = Prng.create 44 in
  let fc = Fc.create ~rng ~block:8 ~in_features:16 ~out_features:24 () in
  let sp = Fc.sparsify ~bm:8 ~bk:8 ~sparsity:0.5 fc in
  List.iter
    (fun (r0, r1) ->
      match Fc.slice sp ~r0 ~r1 with
      | _ -> Alcotest.failf "slice [%d, %d) of a block-sparse layer" r0 r1
      | exception Invalid_argument _ -> ())
    [ (0, 8); (0, 24) ]

(* the block-sparse branch writes its columns of a wider output and
   leaves the others alone *)
let test_fc_block_sparse_window () =
  let rng = Prng.create 45 in
  let fc =
    Fc.create ~rng ~act:Fc.Gelu_act ~block:8 ~in_features:16 ~out_features:24
      ()
  in
  let sp = Fc.sparsify ~bm:4 ~bk:8 ~sparsity:0.7 fc in
  let x = random_tensor rng [| 3; 16 |] in
  let out = Tensor.init Datatype.F32 [| 3; 30 |] (fun _ -> 7.0) in
  Fc.forward_into sp x ~out ~col0:4;
  let y = Fc.forward sp x in
  check_bits "window" y
    (Tensor.init Datatype.F32 [| 3; 24 |] (fun i ->
         Tensor.get out [| i.(0); i.(1) + 4 |]));
  for i = 0 to 2 do
    List.iter
      (fun j ->
        checkb "outside the window" true (Tensor.get out [| i; j |] = 7.0))
      [ 0; 1; 2; 3; 28; 29 ]
  done

(* ---- attention ---- *)

(* the attention block: projections, attention, output projection *)
let attention_block ~nthreads ?causal (att : Attention.t) x =
  let q, k, v = Attention.project ~nthreads att x in
  let ctx = Attention.attend ~nthreads ?causal ~heads:att.Attention.heads q k v in
  Fc.forward ~nthreads att.Attention.wo ctx

let test_attention_matches_reference () =
  let rng = Prng.create 5 in
  let att = Attention.create ~rng ~block:8 ~hidden:32 ~heads:4 () in
  let x = random_tensor rng [| 16; 32 |] in
  let expect = Attention.reference_forward att x in
  List.iter
    (fun nthreads ->
      let got = attention_block ~nthreads att x in
      checkb "attention" true (Tensor.approx_equal ~tol:1e-4 got expect))
    [ 1; 2 ]

let test_attention_causal () =
  let rng = Prng.create 6 in
  let att = Attention.create ~rng ~block:8 ~hidden:16 ~heads:2 () in
  let x = random_tensor rng [| 8; 16 |] in
  let expect = Attention.reference_forward ~causal:true att x in
  List.iter
    (fun nthreads ->
      let got = attention_block ~nthreads ~causal:true att x in
      checkb "causal attention" true (Tensor.approx_equal ~tol:1e-4 got expect))
    [ 1; 2 ]

let test_attention_causal_prefix_invariance () =
  (* with causal masking, output at position i only depends on tokens
     <= i: extending the sequence must not change earlier outputs *)
  let rng = Prng.create 7 in
  let att = Attention.create ~rng ~block:8 ~hidden:16 ~heads:2 () in
  let x8 = random_tensor rng [| 8; 16 |] in
  let x6 = Tensor.init Datatype.F32 [| 6; 16 |] (fun i -> Tensor.get x8 i) in
  List.iter
    (fun nthreads ->
      let y8 = attention_block ~nthreads ~causal:true att x8 in
      let y6 = attention_block ~nthreads ~causal:true att x6 in
      let y8_prefix =
        Tensor.init Datatype.F32 [| 6; 16 |] (fun i -> Tensor.get y8 i)
      in
      checkb "prefix invariant" true
        (Tensor.approx_equal ~tol:1e-4 y8_prefix y6))
    [ 1; 2 ]

(* [Attention.attend_range] before its row blocks, kept as the oracle of
   the blocked one: per head, one BRGEMM scores all nq rows against all
   nk keys, one softmax runs over the whole width and one BRGEMM forms
   the context over all nk keys *)
let attend_range_full_width ~causal ~heads ~h0 ~h1 ~out q k v =
  let nq = Tensor.dim q 0 and nk = Tensor.dim k 0 in
  let hidden = Tensor.dim q 1 in
  let d = hidden / heads in
  let scale = 1.0 /. sqrt (float_of_int d) in
  let scores = Tensor.create Datatype.F32 [| nq; nk |] in
  let kt = Tensor.create Datatype.F32 [| d; nk |] in
  let score_ker =
    Dispatch.brgemm (Brgemm.make_config ~beta:0.0 ~m:nq ~n:nk ~k:d ())
  in
  let ctx_ker =
    Dispatch.brgemm (Brgemm.make_config ~beta:0.0 ~m:nq ~n:d ~k:nk ())
  in
  let head x h =
    Tensor.view_flat x ~off:(h * d) ~rows:(Tensor.dim x 0) ~cols:d ~ld:hidden
  in
  for h = h0 to h1 - 1 do
    Tpp_unary.transpose ~inp:(head k h) ~out:(Tensor.view2d kt);
    Brgemm.exec score_ker ~a:(head q h) ~b:(Tensor.view2d kt)
      ~c:(Tensor.view2d scores);
    Blocks.softmax_rows ~scale
      ?causal:(if causal then Some (nk - nq) else None)
      ~inp:(Tensor.view2d scores) ~out:(Tensor.view2d scores) ();
    Brgemm.exec ctx_ker ~a:(Tensor.view2d scores) ~b:(head v h) ~c:(head out h)
  done

let same_bits what expect got =
  for i = 0 to Tensor.numel expect - 1 do
    let e = Int32.bits_of_float (Tensor.get_flat expect i)
    and g = Int32.bits_of_float (Tensor.get_flat got i) in
    if e <> g then
      Alcotest.failf "%s: element %d is %08lx, expected %08lx" what i g e
  done

(* [attend_range ?nthreads] and the oracle on one case, into outputs
   that start with the same marker in every column *)
let check_attend_range what ~nthreads ~causal ~heads ~h0 ~h1 q k v =
  let fresh () =
    let t = Tensor.create Datatype.F32 [| Tensor.dim q 0; Tensor.dim q 1 |] in
    Tensor.fill t 7.0;
    t
  in
  let expect = fresh () and got = fresh () in
  attend_range_full_width ~causal ~heads ~h0 ~h1 ~out:expect q k v;
  Attention.attend_range ~nthreads ~causal ~heads ~h0 ~h1 ~out:got q k v;
  same_bits what expect got

(* a value of q, k or v: mostly uniform, sometimes NaN, +-inf or +-1e30 *)
let qkv_value rng =
  let u = Prng.float rng in
  if u < 0.004 then Float.nan
  else if u < 0.008 then Float.infinity
  else if u < 0.012 then Float.neg_infinity
  else if u < 0.016 then 1e30
  else if u < 0.02 then -1e30
  else Prng.uniform rng ~scale:2.0

let test_attend_range_row_blocks () =
  let rng = Prng.create 71 in
  let pick lo hi = lo + int_of_float (Prng.float rng *. float_of_int (hi - lo + 1)) in
  for case = 1 to 240 do
    let heads = [| 1; 2; 4 |].(pick 0 2) and d = pick 1 16 in
    let nq = pick 1 90 in
    let nk = nq + (if Prng.float rng < 0.3 then 0 else pick 1 60) in
    let h0 = pick 0 (heads - 1) in
    let h1 = pick (h0 + 1) heads in
    let causal = Prng.float rng < 0.7 and nthreads = pick 1 2 in
    let t rows =
      Tensor.init Datatype.F32 [| rows; heads * d |] (fun _ -> qkv_value rng)
    in
    let q = t nq and k = t nk and v = t nk in
    check_attend_range
      (Printf.sprintf "case %d: nq %d nk %d heads %d d %d h %d..%d %s %d thr"
         case nq nk heads d h0 h1
         (if causal then "causal" else "full")
         nthreads)
      ~nthreads ~causal ~heads ~h0 ~h1 q k v
  done

(* Rows whose live scores are all -inf, or all finite and at most
   -1e30, in row blocks whose live keys stop short of nk: their masked
   exp is not +0, so each such block must redo itself at full width.
   With nq = 80 the blocks are rows [0, 16), [16, 48) and [48, 80); rows
   15 and 47 are the last rows of the two cut blocks, alone there *)
let test_attend_range_masked_rows_fall_back () =
  let heads = 2 and d = 4 and nq = 80 and nk = 100 in
  let hidden = heads * d in
  List.iter
    (fun masked ->
      let rng = Prng.create 72 in
      let t rows =
        Tensor.init Datatype.F32 [| rows; hidden |] (fun _ ->
            Prng.uniform rng ~scale:1.0)
      in
      let q = t nq and k = t nk and v = t nk in
      (* every key's first column is -1e16, so a query row of 1e16
         scores -1e32 on it (at most -1e30 after the scale) and one of
         1e25 overflows to -inf *)
      for j = 0 to nk - 1 do
        for c = 0 to hidden - 1 do
          Tensor.set k [| j; c |] (if c mod d = 0 then -1e16 else 0.0)
        done
      done;
      List.iter
        (fun (r, x) ->
          for c = 0 to hidden - 1 do
            Tensor.set q [| r; c |] (if c mod d = 0 then x else 0.0)
          done)
        masked;
      List.iter
        (fun nthreads ->
          check_attend_range
            (Printf.sprintf "masked rows %s, %d thr"
               (String.concat " "
                  (List.map (fun (r, x) -> Printf.sprintf "%d@%g" r x) masked))
               nthreads)
            ~nthreads ~causal:true ~heads ~h0:0 ~h1:heads q k v)
        [ 1; 2 ])
    [ [ (0, 1e16); (5, 1e25); (40, 1e16); (41, 1e25); (70, 1e16) ];
      [ (15, 1e16) ]; [ (15, 1e25) ]; [ (47, 1e16) ]; [ (47, 1e25) ] ]

(* ---- bert ---- *)

let test_bert_layer_matches_reference () =
  let rng = Prng.create 8 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let x = random_tensor rng [| 16; Bert.tiny_config.Bert.hidden |] in
  let layer = bert.Bert.encoder.(0) in
  let got = Bert.encoder_layer ~nthreads:2 layer x in
  let expect = Bert.reference_encoder_layer layer x in
  checkb "bert encoder layer" true (Tensor.approx_equal ~tol:1e-3 got expect)

let test_bert_forward_shapes () =
  let rng = Prng.create 9 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let ids = Array.init 16 (fun i -> i mod Bert.tiny_config.Bert.vocab) in
  let y = Bert.forward bert ids in
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
  let sp, dense_eq = Bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.5 bert in
  let x = random_tensor rng [| 16; Bert.tiny_config.Bert.hidden |] in
  let sparse = Bert.encode sp x in
  let dense = Bert.encode dense_eq x in
  checkb "sparse == dense on pruned weights" true
    (Tensor.approx_equal ~tol:1e-3 sparse dense)

let test_sparse_bert_sparsity_target () =
  let rng = Prng.create 13 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let sp, _ = Bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.8 bert in
  let s = Bert.achieved_sparsity sp in
  checkb "sparsity ~0.8" true (Float.abs (s -. 0.8) < 0.05)

let test_sparse_bert_effective_flops_scale () =
  let rng = Prng.create 14 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let sp80, _ = Bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.8 bert in
  let sp0, _ = Bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.0 bert in
  let f80 = Bert.layer_effective_flops sp80 ~seq:64 in
  let f0 = Bert.layer_effective_flops sp0 ~seq:64 in
  checkb "80% sparsity cuts flops" true (f80 < 0.45 *. f0)

(* the one encoder layer on block-sparse FCs against the naive
   reference, which reads the pruned weights *)
let test_sparse_bert_layer_matches_reference () =
  let rng = Prng.create 15 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  List.iter
    (fun sparsity ->
      let sp, _ = Bert.sparsify ~bm:8 ~bk:8 ~sparsity bert in
      let layer = sp.Bert.encoder.(0) in
      checkb "block-sparse FCs" true
        (match layer.Bert.out_fc.Fc.kernel with
        | Fc.Block_sparse _ -> true
        | Fc.Dense _ -> false);
      List.iter
        (fun n ->
          let x = random_tensor rng [| n; Bert.tiny_config.Bert.hidden |] in
          let got = Bert.encoder_layer ~nthreads:2 layer x in
          let expect = Bert.reference_encoder_layer layer x in
          checkb
            (Printf.sprintf "%.0f%% sparse, %d tokens" (100.0 *. sparsity) n)
            true
            (Tensor.approx_equal ~tol:1e-3 got expect))
        [ 1; 17 ])
    [ 0.5; 0.9 ]

(* an unpruned model's effective FLOPs are the closed form's: one
   output projection a layer *)
let test_sparse_bert_unpruned_flops () =
  let rng = Prng.create 16 in
  let cfg = Bert.tiny_config in
  let bert = Bert.create ~rng ~block:16 cfg in
  let sp0, _ = Bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.0 bert in
  List.iter
    (fun (what, m) ->
      Alcotest.(check (float 1.0))
        what
        (Bert.layer_flops cfg ~seq:64)
        (Bert.layer_effective_flops m ~seq:64))
    [ ("dense", bert); ("0% sparse", sp0) ]

let () =
  Alcotest.run "dnn"
    [
      ( "fc",
        [
          Alcotest.test_case "forward" `Quick test_fc_forward_matches_reference;
          Alcotest.test_case "single token" `Quick test_fc_single_token;
          Alcotest.test_case "tokens on M == W as A, bit for bit" `Quick
            test_fc_rows_match_w_as_a;
          Alcotest.test_case "forward follows new weights" `Quick
            test_fc_forward_follows_new_weights;
          Alcotest.test_case "block-sparse with_weights is dense" `Quick
            test_fc_block_sparse_with_weights_dense;
          Alcotest.test_case "block-sparse slice raises" `Quick
            test_fc_block_sparse_slice_rejected;
          Alcotest.test_case "block-sparse forward_into window" `Quick
            test_fc_block_sparse_window;
        ] );
      ( "attention",
        [
          Alcotest.test_case "reference" `Quick test_attention_matches_reference;
          Alcotest.test_case "causal" `Quick test_attention_causal;
          Alcotest.test_case "prefix invariance" `Quick
            test_attention_causal_prefix_invariance;
          Alcotest.test_case "row blocks == full width, bit for bit" `Quick
            test_attend_range_row_blocks;
          Alcotest.test_case "masked rows take the full width" `Quick
            test_attend_range_masked_rows_fall_back;
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
          Alcotest.test_case "layer reference" `Quick
            test_sparse_bert_layer_matches_reference;
          Alcotest.test_case "unpruned effective flops == layer flops" `Quick
            test_sparse_bert_unpruned_flops;
        ] );
    ]
