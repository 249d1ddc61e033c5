(* Tests for the PARLOOPER/TPP kernels: GEMM (Listing 1), direct
   convolution (Listing 4) and Block-SpMM (Listing 5), all verified against
   naive references. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let qt t = QCheck_alcotest.to_alcotest t

let random_tensor ?(dtype = Datatype.F32) rng dims =
  let t = Tensor.create dtype dims in
  Tensor.fill_random t rng ~scale:1.0;
  t

(* ---- gemm ---- *)

let gemm_case ~spec ~dtype ~vnni_b ~nthreads () =
  let rng = Prng.create 100 in
  let m, n, k = (64, 48, 96) in
  let a = random_tensor ~dtype rng [| m; k |] in
  let b = random_tensor ~dtype rng [| k; n |] in
  let cfg =
    Gemm.make_config ~bm:16 ~bn:16 ~bk:16 ~dtype ~vnni_b ~k_step:2
      ~mk_blocks:[ 4; 2 ] ~nk_blocks:[ 3 ] ~m ~n ~k ()
  in
  let g = Gemm.create cfg spec in
  let c = Gemm.run_logical ~nthreads g ~a ~b in
  checkb
    (Printf.sprintf "gemm %s %s" spec (Datatype.to_string dtype))
    true
    (Tensor.approx_equal ~tol:1e-4 c (Reference.matmul a b))

let test_gemm_specs () =
  List.iter
    (fun spec -> gemm_case ~spec ~dtype:Datatype.F32 ~vnni_b:false ~nthreads:4 ())
    [
      "BCa"; "aBC"; "bca"; "cab"; "acb"; "bcabcb"; "bC{R:2}aB{C:2}cb";
      "BCa @ schedule(dynamic,2)"; "aBC @ schedule(dynamic,1)"; "caBbc";
    ]

let test_gemm_bf16 () =
  gemm_case ~spec:"BCa" ~dtype:Datatype.BF16 ~vnni_b:false ~nthreads:2 ();
  gemm_case ~spec:"BCa" ~dtype:Datatype.BF16 ~vnni_b:true ~nthreads:2 ();
  gemm_case ~spec:"bcaBCb" ~dtype:Datatype.BF16 ~vnni_b:true ~nthreads:3 ()

let test_gemm_flops () =
  let cfg = Gemm.make_config ~m:100 ~n:50 ~k:20 ~bm:10 ~bn:10 ~bk:10 () in
  Alcotest.(check (float 0.0)) "2MNK" 200000.0 (Gemm.flops cfg)

let test_gemm_pack_roundtrip () =
  let rng = Prng.create 4 in
  let cfg = Gemm.make_config ~bm:8 ~bn:8 ~bk:8 ~m:16 ~n:24 ~k:16 () in
  let c = random_tensor rng [| 16; 24 |] in
  let packed = Gemm.pack_c cfg c in
  checkb "pack_c/unpack_c" true
    (Tensor.max_abs_diff (Gemm.unpack_c cfg packed) c = 0.0)

let test_gemm_rejects_bad_blocks () =
  match Gemm.make_config ~bm:7 ~m:16 ~n:16 ~k:16 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid block size"

let prop_gemm_random_shapes =
  QCheck.Test.make ~name:"gemm == reference on random divisible shapes"
    ~count:25
    QCheck.(
      quad (int_range 1 4) (int_range 1 4) (int_range 1 4) (int_range 0 2))
    (fun (mb, nb, kb, which) ->
      let bm, bn, bk = (8, 8, 8) in
      let m = mb * bm and n = nb * bn and k = kb * bk in
      let rng = Prng.create ((m * 7) + (n * 13) + k + which) in
      let a = random_tensor rng [| m; k |] in
      let b = random_tensor rng [| k; n |] in
      let spec = List.nth [ "BCa"; "abc"; "cba" ] which in
      let cfg = Gemm.make_config ~bm ~bn ~bk ~m ~n ~k () in
      let g = Gemm.create cfg spec in
      let c = Gemm.run_logical ~nthreads:3 g ~a ~b in
      Tensor.approx_equal ~tol:1e-4 c (Reference.matmul a b))

let test_gemm_post_hook_runs_once_per_block () =
  let cfg =
    Gemm.make_config ~bm:8 ~bn:8 ~bk:8 ~k_step:2 ~m:16 ~n:16 ~k:32 ()
  in
  let g = Gemm.create cfg "abc" in
  let rng = Prng.create 5 in
  let a = Gemm.pack_a cfg (random_tensor rng [| 16; 32 |]) in
  let b = Gemm.pack_b cfg (random_tensor rng [| 32; 16 |]) in
  let c = Gemm.alloc_c cfg in
  let calls = ref 0 in
  Gemm.run ~post:(fun ~im:_ ~in_:_ ~c_block:_ -> incr calls) g ~a ~b ~c;
  checki "post per C block" 4 !calls

(* ---- conv ---- *)

let conv_case ~stride ~pad ~spec ~c_step ~r_step ~s_step ~h_step ~w_step () =
  let rng = Prng.create 10 in
  let n, c, k, h, w, r, s = (2, 16, 16, 8, 8, 3, 3) in
  let inp = random_tensor rng [| n; c; h; w |] in
  let wts = random_tensor rng [| k; c; r; s |] in
  let cfg =
    Conv.make_config ~stride ~pad ~bc:8 ~bk:8 ~c_step ~r_step ~s_step ~h_step
      ~w_step ~n ~c ~k ~h ~w ~r ~s ()
  in
  let cv = Conv.create cfg spec in
  let got = Conv.run_logical ~nthreads:3 cv ~input:inp ~weights:wts in
  let expect = Reference.conv2d ~stride ~pad inp wts in
  checkb
    (Printf.sprintf "conv s%d p%d %s" stride pad spec)
    true
    (Tensor.approx_equal ~tol:1e-4 got expect)

let test_conv_variants () =
  conv_case ~stride:1 ~pad:1 ~spec:"Acdebfg" ~c_step:1 ~r_step:3 ~s_step:3
    ~h_step:1 ~w_step:0 ();
  conv_case ~stride:1 ~pad:1 ~spec:"abcdefg" ~c_step:2 ~r_step:1 ~s_step:1
    ~h_step:2 ~w_step:4 ();
  conv_case ~stride:2 ~pad:1 ~spec:"ACdebfg" ~c_step:1 ~r_step:1 ~s_step:3
    ~h_step:1 ~w_step:0 ();
  conv_case ~stride:1 ~pad:0 ~spec:"gfAcdeb" ~c_step:2 ~r_step:1 ~s_step:1
    ~h_step:1 ~w_step:3 ();
  conv_case ~stride:1 ~pad:1 ~spec:"ADcebfg" ~c_step:1 ~r_step:3 ~s_step:3
    ~h_step:1 ~w_step:2 ()

let test_conv_1x1_stride_path () =
  (* R = S = 1 takes the stride-based BRGEMM fast path *)
  let rng = Prng.create 11 in
  let n, c, k, h, w = (2, 32, 16, 6, 6) in
  let inp = random_tensor rng [| n; c; h; w |] in
  let wts = random_tensor rng [| k; c; 1; 1 |] in
  List.iter
    (fun stride ->
      let cfg =
        Conv.make_config ~stride ~bc:16 ~bk:16 ~c_step:2 ~n ~c ~k ~h ~w ~r:1
          ~s:1 ()
      in
      let cv = Conv.create cfg "Acdebfg" in
      let got = Conv.run_logical ~nthreads:2 cv ~input:inp ~weights:wts in
      let expect = Reference.conv2d ~stride ~pad:0 inp wts in
      checkb "1x1 conv" true (Tensor.approx_equal ~tol:1e-4 got expect))
    [ 1; 2 ]

let test_conv_bf16 () =
  let rng = Prng.create 12 in
  let n, c, k, h, w, r, s = (1, 16, 8, 6, 6, 3, 3) in
  let inp = random_tensor ~dtype:Datatype.BF16 rng [| n; c; h; w |] in
  let wts = random_tensor ~dtype:Datatype.BF16 rng [| k; c; r; s |] in
  let cfg =
    Conv.make_config ~pad:1 ~bc:8 ~bk:8 ~dtype:Datatype.BF16 ~n ~c ~k ~h ~w ~r
      ~s ()
  in
  let cv = Conv.create cfg "Acdebfg" in
  let got = Conv.run_logical cv ~input:inp ~weights:wts in
  let expect = Reference.conv2d ~stride:1 ~pad:1 inp wts in
  checkb "bf16 conv" true (Tensor.approx_equal ~tol:0.05 got expect)

let test_conv_post_hook () =
  let cfg =
    Conv.make_config ~pad:1 ~bc:8 ~bk:8 ~n:1 ~c:8 ~k:8 ~h:4 ~w:4 ~r:3 ~s:3 ()
  in
  let cv = Conv.create cfg "Acdebfg" in
  let rng = Prng.create 13 in
  let ip = Conv.pack_input cfg (random_tensor rng [| 1; 8; 4; 4 |]) in
  let wp = Conv.pack_weights cfg (random_tensor rng [| 8; 8; 3; 3 |]) in
  let o = Conv.alloc_output cfg in
  let calls = ref 0 in
  Conv.run ~post:(fun ~n:_ ~kb:_ ~p:_ ~q:_ ~block:_ -> incr calls) cv
    ~input:ip ~weights:wp ~output:o;
  (* one call per (n, kb, p) row since w_step = Q *)
  checki "post per output row" 4 !calls

let test_conv_flops () =
  let cfg =
    Conv.make_config ~pad:1 ~n:2 ~c:4 ~k:8 ~h:4 ~w:4 ~r:3 ~s:3 ~bc:4 ~bk:8 ()
  in
  (* P=Q=4: 2*2*8*4*4*4*3*3 = 18432 *)
  Alcotest.(check (float 0.0)) "conv flops" 18432.0 (Conv.flops cfg)

(* ---- spmm ---- *)

let spmm_case ~sparsity ~bm ~bk ~dtype ~spec () =
  let rng = Prng.create 14 in
  let m, n, k = (64, 48, 64) in
  let a = Bcsc.random ~rng ~dtype ~rows:m ~cols:k ~bm ~bk ~sparsity in
  let b = random_tensor ~dtype rng [| k; n |] in
  let cfg = Spmm_kernel.make_config ~bn:16 ~dtype ~m ~n ~k ~bm ~bk () in
  let sp = Spmm_kernel.create cfg spec in
  let got = Spmm_kernel.run_logical ~nthreads:3 sp ~a ~b in
  let expect = Reference.matmul (Bcsc.to_dense a) b in
  checkb
    (Printf.sprintf "spmm %.1f %dx%d" sparsity bm bk)
    true
    (Tensor.approx_equal ~tol:1e-4 got expect)

let test_spmm_sparsities () =
  List.iter
    (fun sp -> spmm_case ~sparsity:sp ~bm:8 ~bk:8 ~dtype:Datatype.F32 ~spec:"AB" ())
    [ 0.0; 0.3; 0.7; 0.9; 1.0 ]

let test_spmm_block_sizes () =
  List.iter
    (fun (bm, bk) ->
      spmm_case ~sparsity:0.5 ~bm ~bk ~dtype:Datatype.F32 ~spec:"AB" ())
    [ (4, 4); (8, 16); (16, 8); (32, 32) ]

let test_spmm_bf16_and_specs () =
  spmm_case ~sparsity:0.5 ~bm:16 ~bk:16 ~dtype:Datatype.BF16 ~spec:"AB" ();
  spmm_case ~sparsity:0.5 ~bm:8 ~bk:8 ~dtype:Datatype.F32 ~spec:"BA" ();
  spmm_case ~sparsity:0.5 ~bm:8 ~bk:8 ~dtype:Datatype.F32 ~spec:"ab" ()

(* Each C element sums its block row's stored blocks in column order, p in
   order, so its bits cannot depend on the panel width, the schedule or
   the team size; B carries signed zeros, infinities and NaN. *)
let spmm_bits_case ~dtype ~n ~blk ~sparsity =
  let m, k = (64, 64) in
  let rng = Prng.create 16 in
  let a = Bcsc.random ~rng ~dtype ~rows:m ~cols:k ~bm:blk ~bk:blk ~sparsity in
  let b = random_tensor ~dtype rng [| k; n |] in
  Array.iteri
    (fun i x ->
      Tensor.set b [| ((13 * i) + 3) mod k; ((5 * i) + 1) mod n |] x;
      Tensor.set b [| ((29 * i) + 40) mod k; ((11 * i) + 7) mod n |] x)
    [| 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan |];
  let run ?bn ~nthreads spec =
    let cfg = Spmm_kernel.make_config ?bn ~dtype ~m ~n ~k ~bm:blk ~bk:blk () in
    let c = Spmm_kernel.run_logical ~nthreads (Spmm_kernel.create cfg spec) ~a ~b in
    Array.init (Tensor.numel c) (fun i -> Int32.bits_of_float (Tensor.get_flat c i))
  in
  let expect = run ~nthreads:1 Spmm_kernel.default_spec in
  let panels =
    List.concat_map
      (fun bn -> if n mod bn = 0 then [ (Some bn, "AB"); (Some bn, "BA") ] else [])
      [ 8; 16 ]
  in
  List.iter
    (fun (bn, spec) ->
      List.iter
        (fun nthreads ->
          if run ?bn ~nthreads spec <> expect then
            Alcotest.failf "spmm %s n=%d %dx%d %.1f bn=%s %S %d thr: bits differ"
              (Datatype.to_string dtype) n blk blk sparsity
              (Option.fold ~none:"N" ~some:string_of_int bn)
              spec nthreads)
        [ 1; 2; 3 ])
    ([ (None, Spmm_kernel.default_spec); (Some 1, Spmm_kernel.default_spec);
       (None, "ab") ]
    @ panels)

let test_spmm_bits_invariant () =
  List.iter
    (fun dtype ->
      List.iter
        (fun n ->
          List.iter
            (fun blk ->
              List.iter
                (fun sparsity -> spmm_bits_case ~dtype ~n ~blk ~sparsity)
                [ 0.0; 0.5; 0.8; 1.0 ])
            [ 4; 8; 16 ])
        [ 31; 48; 64 ])
    [ Datatype.F32; Datatype.BF16 ]

(* ---- layout transforms ----
   Every pack, unpack, cast and transpose is one strided copy; each keeps
   the bits of the Tensor.init formula it replaced (Layout_oracle), over
   inputs holding every special value, and allocates next to nothing. *)

module O = Layout_oracle

let dtypes = [ Datatype.F32; Datatype.BF16 ]
let dt_name = Datatype.to_string

let test_gemm_layout_bits () =
  let rng = Prng.create 41 in
  let m = 18 and n = 12 and k = 16 in
  List.iter
    (fun src ->
      List.iter
        (fun dtype ->
          List.iter
            (fun (layout, vnni_b, bm, bn, bk) ->
              let cfg =
                Gemm.make_config ~layout ~dtype ~vnni_b ~bm ~bn ~bk ~m ~n ~k ()
              in
              let tag =
                Printf.sprintf "%s->%s %s %s B, %dx%dx%d" (dt_name src)
                  (dt_name dtype)
                  (if layout = Gemm.Rows then "rows" else "blocked")
                  (if vnni_b then "vnni" else "flat")
                  bm bn bk
              in
              let a = O.special_tensor rng src [| m; k |] in
              O.check_bits ("pack_a " ^ tag) (Gemm.pack_a cfg a)
                (O.pack_a cfg a);
              let b = O.special_tensor rng src [| k; n |] in
              O.check_bits ("pack_b " ^ tag) (Gemm.pack_b cfg b)
                (O.pack_b cfg b);
              let c = O.special_tensor rng src [| m; n |] in
              O.check_bits ("pack_c " ^ tag) (Gemm.pack_c cfg c)
                (O.pack_c cfg c);
              let cp =
                O.special_tensor rng src
                  (Tensor.dims (Gemm.alloc_c ~dtype:src cfg))
              in
              O.check_bits ("unpack_c " ^ tag) (Gemm.unpack_c cfg cp)
                (O.unpack_c cfg cp))
            [
              (Gemm.Blocked, false, 6, 4, 8); (Gemm.Blocked, true, 6, 4, 8);
              (Gemm.Rows, false, 5, 3, 4); (Gemm.Rows, true, 5, 6, 2);
            ])
        dtypes)
    dtypes

let test_conv_layout_bits () =
  let rng = Prng.create 43 in
  List.iter
    (fun (src, dtype) ->
      List.iter
        (fun (pad, stride, bc, bk) ->
          let cfg =
            Conv.make_config ~dtype ~pad ~stride ~bc ~bk ~n:2 ~c:4 ~k:6 ~h:6
              ~w:5 ~r:3 ~s:3 ()
          in
          let tag =
            Printf.sprintf "%s->%s pad %d stride %d bc %d bk %d" (dt_name src)
              (dt_name dtype) pad stride bc bk
          in
          let inp = O.special_tensor rng src [| 2; 4; 6; 5 |] in
          O.check_bits ("pack_input " ^ tag) (Conv.pack_input cfg inp)
            (O.conv_pack_input cfg inp);
          let w = O.special_tensor rng src [| 6; 4; 3; 3 |] in
          O.check_bits ("pack_weights " ^ tag) (Conv.pack_weights cfg w)
            (O.conv_pack_weights cfg w);
          let o =
            O.special_tensor rng src
              (Tensor.dims (Conv.alloc_output ~dtype:src cfg))
          in
          O.check_bits ("unpack_output " ^ tag) (Conv.unpack_output cfg o)
            (O.conv_unpack_output cfg o))
        [ (0, 1, 2, 3); (1, 1, 4, 2); (2, 2, 2, 6); (1, 2, 4, 3); (2, 1, 2, 2) ])
    [
      (Datatype.F32, Datatype.F32); (Datatype.F32, Datatype.BF16);
      (Datatype.BF16, Datatype.BF16); (Datatype.BF16, Datatype.F32);
    ]

(* the old TPP loops: a View.get/View.set per element *)
let view_copy ~transpose (inp : Tensor.View.t) (out : Tensor.View.t) =
  for i = 0 to inp.Tensor.View.rows - 1 do
    for j = 0 to inp.Tensor.View.cols - 1 do
      if transpose then Tensor.View.set out j i (Tensor.View.get inp i j)
      else Tensor.View.set out i j (Tensor.View.get inp i j)
    done
  done

let test_other_layout_bits () =
  let rng = Prng.create 47 in
  List.iter
    (fun src ->
      List.iter
        (fun dtype ->
          let tag = dt_name src ^ "->" ^ dt_name dtype in
          let b = O.special_tensor rng src [| 20; 12 |] in
          let cfg =
            Spmm_kernel.make_config ~dtype ~m:8 ~n:12 ~k:20 ~bm:4 ~bk:4 ()
          in
          O.check_bits ("spmm pack_b " ^ tag) (Spmm_kernel.pack_b cfg b)
            (O.spmm_pack_b cfg b);
          (* 7x5 windows inside 20x12 and 12x20 tensors, off their origin *)
          let x = O.special_tensor rng src [| 20; 12 |] in
          let inp = Tensor.view x [| 3; 2 |] ~rows:7 ~cols:5 in
          List.iter
            (fun transpose ->
              let dims = if transpose then [| 12; 20 |] else [| 20; 12 |] in
              let r, c = if transpose then (5, 7) else (7, 5) in
              let got = O.special_tensor rng dtype dims in
              let want = Tensor.copy got in
              let out t = Tensor.view t [| 4; 1 |] ~rows:r ~cols:c in
              if transpose then
                Tpp_unary.transpose ~inp ~out:(out got)
              else Tpp_unary.exec Tpp_unary.Copy ~inp ~out:(out got);
              view_copy ~transpose inp (out want);
              O.check_bits
                ((if transpose then "tpp transpose " else "tpp copy ") ^ tag)
                got want)
            [ false; true ])
        dtypes;
      let x = O.special_tensor rng src [| 9; 7 |] in
      O.check_bits ("last_row " ^ dt_name src) (Llm.last_row x) (O.last_row x))
    dtypes;
  List.iter
    (fun dtype ->
      let fc =
        Fc.create ~rng ~dtype ~block:4 ~in_features:8 ~out_features:12 ()
      in
      let s = Fc.slice fc ~r0:4 ~r1:12 in
      O.check_bits ("fc slice weights " ^ dt_name dtype) s.Fc.weights
        (O.fc_slice_weights fc ~r0:4 ~r1:12);
      O.check_bits ("fc slice bias " ^ dt_name dtype) s.Fc.bias
        (O.fc_slice_bias fc ~r0:4 ~r1:12))
    dtypes

(* perfbench's set-up transforms, each well under a word per element *)
let test_transforms_allocation () =
  let rng = Prng.create 3 in
  let dim = 512 in
  let check name f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    let w = Gc.minor_words () -. w0 in
    checkb (Printf.sprintf "%s: %.0f minor words < 1000" name w) true
      (w < 1000.0)
  in
  let a = Tensor.create Datatype.F32 [| dim; dim |] in
  check "fill_random 512^2" (fun () -> Tensor.fill_random a rng ~scale:1.0);
  check "cast 512^2 to bf16" (fun () -> Tensor.cast a Datatype.BF16);
  let f32 = Gemm.make_config ~m:dim ~n:dim ~k:dim () in
  let bf16 =
    Gemm.make_config ~dtype:Datatype.BF16 ~vnni_b:true ~m:dim ~n:dim ~k:dim ()
  in
  check "gemm pack_a" (fun () -> Gemm.pack_a f32 a);
  check "gemm pack_b flat" (fun () -> Gemm.pack_b f32 a);
  check "gemm pack_b vnni" (fun () -> Gemm.pack_b bf16 a);
  let cfg = Conv.make_config ~pad:1 ~n:2 ~c:64 ~k:64 ~h:56 ~w:56 ~r:3 ~s:3 () in
  let inp = random_tensor rng [| 2; 64; 56; 56 |] in
  check "conv pack_input" (fun () -> Conv.pack_input cfg inp);
  let out = Conv.alloc_output cfg in
  check "conv unpack_output" (fun () -> Conv.unpack_output cfg out);
  let scfg = Spmm_kernel.make_config ~m:dim ~n:dim ~k:dim ~bm:16 ~bk:16 () in
  check "spmm pack_b" (fun () -> Spmm_kernel.pack_b scfg a)

let test_spmm_effective_flops () =
  let rng = Prng.create 15 in
  let a =
    Bcsc.random ~rng ~dtype:Datatype.F32 ~rows:32 ~cols:32 ~bm:8 ~bk:8
      ~sparsity:0.5
  in
  let cfg = Spmm_kernel.make_config ~m:32 ~n:32 ~k:32 ~bm:8 ~bk:8 () in
  let eff = Spmm_kernel.effective_flops cfg ~a in
  let dense = Spmm_kernel.dense_flops cfg in
  Alcotest.(check (float 1.0))
    "effective = density * dense"
    (dense *. (1.0 -. Bcsc.sparsity a))
    eff

let () =
  Alcotest.run "kernels"
    [
      ( "gemm",
        [
          Alcotest.test_case "spec strings" `Quick test_gemm_specs;
          Alcotest.test_case "bf16 / vnni" `Quick test_gemm_bf16;
          Alcotest.test_case "flops" `Quick test_gemm_flops;
          Alcotest.test_case "pack roundtrip" `Quick test_gemm_pack_roundtrip;
          Alcotest.test_case "bad blocks rejected" `Quick
            test_gemm_rejects_bad_blocks;
          qt prop_gemm_random_shapes;
          Alcotest.test_case "post hook" `Quick
            test_gemm_post_hook_runs_once_per_block;
        ] );
      ( "conv",
        [
          Alcotest.test_case "variants" `Quick test_conv_variants;
          Alcotest.test_case "1x1 stride path" `Quick test_conv_1x1_stride_path;
          Alcotest.test_case "bf16" `Quick test_conv_bf16;
          Alcotest.test_case "post hook" `Quick test_conv_post_hook;
          Alcotest.test_case "flops" `Quick test_conv_flops;
        ] );
      ( "spmm",
        [
          Alcotest.test_case "sparsity sweep" `Quick test_spmm_sparsities;
          Alcotest.test_case "block sizes" `Quick test_spmm_block_sizes;
          Alcotest.test_case "bf16 + specs" `Quick test_spmm_bf16_and_specs;
          Alcotest.test_case "bits invariant to panel, schedule, team" `Quick
            test_spmm_bits_invariant;
          Alcotest.test_case "effective flops" `Quick test_spmm_effective_flops;
        ] );
      ( "pack",
        [
          Alcotest.test_case "gemm packs keep their bits" `Quick
            test_gemm_layout_bits;
          Alcotest.test_case "conv packs keep their bits" `Quick
            test_conv_layout_bits;
          Alcotest.test_case "spmm, tpp, fc, llm keep their bits" `Quick
            test_other_layout_bits;
          Alcotest.test_case "set-up transforms allocate < 1000 words" `Quick
            test_transforms_allocation;
        ] );
    ]
