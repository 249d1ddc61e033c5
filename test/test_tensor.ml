(* Unit + property tests for the tensor substrate: Prng, Bf16, Datatype,
   Tensor, Vnni, Bcsc. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    checkb "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  checkb "different seeds differ" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_float_range () =
  let r = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.float r in
    checkb "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_int_range () =
  let r = Prng.create 9 in
  for _ = 1 to 1000 do
    let x = Prng.int r 13 in
    checkb "in [0,13)" true (x >= 0 && x < 13)
  done

let test_prng_split_independent () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  checkb "split stream differs" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_gaussian_moments () =
  let r = Prng.create 3 in
  let n = 20000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian r in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  checkb "mean ~ 0" true (Float.abs mean < 0.05);
  checkb "var ~ 1" true (Float.abs (var -. 1.0) < 0.05)

(* ---- Bf16 ---- *)

let test_bf16_exact_small_ints () =
  List.iter
    (fun x -> checkf "small ints exact" x (Bf16.round x))
    [ 0.0; 1.0; -1.0; 2.0; 128.0; 0.5; -0.25 ]

let test_bf16_truncates () =
  (* 1 + 2^-9 is not representable; rounds to 1.0 *)
  checkf "rounds to nearest" 1.0 (Bf16.round (1.0 +. (1.0 /. 512.0) /. 2.0))

let test_bf16_nan_inf () =
  checkb "nan preserved" true (Float.is_nan (Bf16.round Float.nan));
  checkf "inf preserved" Float.infinity (Bf16.round Float.infinity);
  checkf "-inf preserved" Float.neg_infinity (Bf16.round Float.neg_infinity)

let test_bf16_bits_roundtrip () =
  List.iter
    (fun x ->
      let b = Bf16.bits_of_float x in
      checkf "bits roundtrip" (Bf16.round x) (Bf16.float_of_bits b))
    [ 3.14159; -2.71828; 1e-3; 65504.0; 1e20; -1e-20 ]

let prop_bf16_idempotent =
  QCheck.Test.make ~name:"bf16 rounding is idempotent" ~count:1000
    (QCheck.float_range (-1e6) 1e6)
    (fun x -> Bf16.round (Bf16.round x) = Bf16.round x)

let prop_bf16_relative_error =
  QCheck.Test.make ~name:"bf16 relative error <= 2^-8" ~count:1000
    (QCheck.float_range 1e-10 1e10)
    (fun x -> Float.abs (Bf16.round x -. x) <= Bf16.epsilon *. Float.abs x)

let prop_bf16_monotone =
  QCheck.Test.make ~name:"bf16 rounding is monotone" ~count:1000
    QCheck.(pair (float_range (-1e5) 1e5) (float_range (-1e5) 1e5))
    (fun (a, b) ->
      let a, b = if a <= b then (a, b) else (b, a) in
      Bf16.round a <= Bf16.round b)

(* ---- Tensor ---- *)

let test_tensor_create_zeroed () =
  let t = Tensor.create Datatype.F32 [| 3; 4 |] in
  checki "numel" 12 (Tensor.numel t);
  checkb "all zero" true (List.for_all (fun x -> x = 0.0) (Tensor.to_list t))

let test_tensor_get_set () =
  let t = Tensor.create Datatype.F32 [| 2; 3; 4 |] in
  Tensor.set t [| 1; 2; 3 |] 5.0;
  checkf "set/get" 5.0 (Tensor.get t [| 1; 2; 3 |]);
  checkf "flat offset" 5.0 (Tensor.get_flat t ((1 * 12) + (2 * 4) + 3))

let test_tensor_init_rowmajor () =
  let t =
    Tensor.init Datatype.F32 [| 2; 3 |] (fun i ->
        float_of_int ((i.(0) * 10) + i.(1)))
  in
  check
    (Alcotest.list (Alcotest.float 0.0))
    "row major order"
    [ 0.; 1.; 2.; 10.; 11.; 12. ]
    (Tensor.to_list t)

let test_tensor_bf16_store_quantizes () =
  let t = Tensor.create Datatype.BF16 [| 1 |] in
  Tensor.set_flat t 0 (1.0 +. (1.0 /. 4096.0));
  checkf "bf16 store rounds" 1.0 (Tensor.get_flat t 0)

let test_tensor_reshape () =
  let t = Tensor.init Datatype.F32 [| 2; 6 |] (fun i -> float_of_int i.(1)) in
  let r = Tensor.reshape t [| 3; 4 |] in
  checkf "shares data" (Tensor.get t [| 0; 5 |]) (Tensor.get r [| 1; 1 |])

let test_tensor_cast () =
  let t = Tensor.create Datatype.F32 [| 2 |] in
  Tensor.set_flat t 0 (1.0 +. (1.0 /. 4096.0));
  let c = Tensor.cast t Datatype.BF16 in
  checkf "cast rounds" 1.0 (Tensor.get_flat c 0);
  checkf "original unchanged" (1.0 +. (1.0 /. 4096.0)) (Tensor.get_flat t 0)

let test_tensor_view () =
  let t =
    Tensor.init Datatype.F32 [| 4; 5 |] (fun i ->
        float_of_int ((i.(0) * 5) + i.(1)))
  in
  let v = Tensor.view t [| 1; 2 |] ~rows:2 ~cols:3 in
  checkf "view (0,0)" 7.0 (Tensor.View.get v 0 0);
  checkf "view (1,2)" 14.0 (Tensor.View.get v 1 2);
  Tensor.View.set v 1 2 99.0;
  checkf "view writes through" 99.0 (Tensor.get t [| 2; 4 |])

let test_view_sub () =
  let t =
    Tensor.init Datatype.F32 [| 4; 4 |] (fun i ->
        float_of_int ((i.(0) * 4) + i.(1)))
  in
  let v = Tensor.view2d t in
  let s = Tensor.View.sub v ~row:1 ~col:1 ~rows:2 ~cols:2 in
  checkf "sub view" 5.0 (Tensor.View.get s 0 0);
  checkf "sub view corner" 10.0 (Tensor.View.get s 1 1)

let test_tensor_copy_independent () =
  let t = Tensor.create Datatype.F32 [| 2 |] in
  let c = Tensor.copy t in
  Tensor.set_flat c 0 1.0;
  checkf "copy is deep" 0.0 (Tensor.get_flat t 0)

let test_max_abs_diff () =
  let a = Tensor.init Datatype.F32 [| 3 |] (fun i -> float_of_int i.(0)) in
  let b = Tensor.init Datatype.F32 [| 3 |] (fun i -> float_of_int i.(0) +. 0.5) in
  checkf "max abs diff" 0.5 (Tensor.max_abs_diff a b)

(* ---- Vnni ---- *)

let prop_vnni_roundtrip =
  QCheck.Test.make ~name:"vnni pack/unpack roundtrip (bf16)" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (kh, n) ->
      let k = 2 * kh in
      let rng = Prng.create (kh + (n * 100)) in
      let b = Tensor.create Datatype.BF16 [| k; n |] in
      Tensor.fill_random b rng ~scale:1.0;
      let p = Vnni.pack b in
      let u = Vnni.unpack p in
      Tensor.max_abs_diff b u = 0.0)

let test_vnni_identity_f32 () =
  let b = Tensor.init Datatype.F32 [| 3; 2 |] (fun i -> float_of_int i.(0)) in
  let p = Vnni.pack b in
  checki "f32 vnni factor 1" 3 (Tensor.dims p).(0);
  checkf "values preserved" 2.0 (Vnni.get p ~v:1 ~k:2 ~n:0)

let test_vnni_layout () =
  let b =
    Tensor.init Datatype.BF16 [| 4; 3 |] (fun i ->
        float_of_int ((i.(0) * 3) + i.(1)))
  in
  let p = Vnni.pack b in
  (* element (k=1, n=2) should be at [0][2][1] *)
  checkf "packed position" 5.0 (Tensor.get p [| 0; 2; 1 |]);
  checkf "get helper" 5.0 (Vnni.get p ~v:2 ~k:1 ~n:2)

(* ---- Bcsc ---- *)

let test_bcsc_roundtrip_dense () =
  let rng = Prng.create 21 in
  let a = Tensor.create Datatype.F32 [| 16; 24 |] in
  Tensor.fill_random a rng ~scale:1.0;
  let s = Bcsc.of_dense ~bm:4 ~bk:8 a in
  checkb "dense roundtrip" true (Tensor.max_abs_diff (Bcsc.to_dense s) a = 0.0)

let test_bcsc_drops_zero_blocks () =
  let a = Tensor.create Datatype.F32 [| 8; 8 |] in
  (* only block (1,1) nonzero *)
  Tensor.set a [| 5; 6 |] 1.0;
  let s = Bcsc.of_dense ~bm:4 ~bk:4 a in
  checki "one stored block" 1 (Bcsc.nnz_blocks s);
  checkf "sparsity 3/4" 0.75 (Bcsc.sparsity s);
  checkb "roundtrip" true (Tensor.max_abs_diff (Bcsc.to_dense s) a = 0.0)

let test_bcsc_row_blocks_sorted () =
  let rng = Prng.create 33 in
  let s =
    Bcsc.random ~rng ~dtype:Datatype.F32 ~rows:32 ~cols:32 ~bm:8 ~bk:8
      ~sparsity:0.3
  in
  for ib = 0 to 3 do
    let blocks = Bcsc.row_blocks s ib in
    let cols = Array.to_list (Array.map fst blocks) in
    checkb "sorted by block col" true (List.sort compare cols = cols)
  done

let prop_bcsc_random_roundtrip =
  QCheck.Test.make ~name:"bcsc random roundtrip via of_dense" ~count:30
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 0 10))
    (fun (mb, kb, sp10) ->
      let bm = 4 and bk = 8 in
      let rows = mb * bm and cols = kb * bk in
      let rng = Prng.create (mb + (kb * 17) + (sp10 * 101)) in
      let s =
        Bcsc.random ~rng ~dtype:Datatype.F32 ~rows ~cols ~bm ~bk
          ~sparsity:(float_of_int sp10 /. 10.0)
      in
      let d = Bcsc.to_dense s in
      let s2 = Bcsc.of_dense ~bm ~bk d in
      Tensor.max_abs_diff (Bcsc.to_dense s2) d = 0.0)

let test_prune_dense_hits_target () =
  let rng = Prng.create 5 in
  let a = Tensor.create Datatype.F32 [| 64; 64 |] in
  Tensor.fill_random a rng ~scale:1.0;
  let s = Bcsc.prune_dense ~bm:8 ~bk:8 ~sparsity:0.75 a in
  checkf "sparsity on target" 0.75 (Bcsc.sparsity s)

let test_prune_keeps_largest () =
  let a = Tensor.create Datatype.F32 [| 8; 8 |] in
  (* block (0,0) small values, block (1,1) large *)
  Tensor.set a [| 0; 0 |] 0.01;
  Tensor.set a [| 5; 5 |] 10.0;
  let s = Bcsc.prune_dense ~bm:4 ~bk:4 ~sparsity:0.75 a in
  let d = Bcsc.to_dense s in
  checkf "large block kept" 10.0 (Tensor.get d [| 5; 5 |]);
  checkf "small block pruned" 0.0 (Tensor.get d [| 0; 0 |])

(* ---- the strided copy ----
   Every transform built on it keeps the bits of the Tensor.init formula
   it replaced (Layout_oracle), over inputs holding every special value. *)

module O = Layout_oracle

let dtypes = [ Datatype.F32; Datatype.BF16 ]
let dt_name = Datatype.to_string

let test_tensor_transforms_bits () =
  let rng = Prng.create 31 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          let tag = dt_name src ^ "->" ^ dt_name dst in
          let x = O.special_tensor rng src [| 12; 10 |] in
          O.check_bits ("cast " ^ tag) (Tensor.cast x dst) (O.cast x dst);
          (* v = 2 for a BF16 target, 1 for FP32 *)
          O.check_bits ("vnni pack ~dtype " ^ tag) (Vnni.pack ~dtype:dst x)
            (O.vnni_pack (O.cast x dst)))
        dtypes;
      let tag = dt_name src in
      let b = O.special_tensor rng src [| 12; 10 |] in
      let p = Vnni.pack b in
      O.check_bits ("vnni pack " ^ tag) p (O.vnni_pack b);
      let p = O.special_tensor rng src (Tensor.dims p) in
      O.check_bits ("vnni unpack " ^ tag) (Vnni.unpack p) (O.vnni_unpack p);
      O.check_bits ("transpose " ^ tag) (Tensor.transpose b) (O.transpose b);
      let s = Bcsc.of_dense ~bm:4 ~bk:5 b in
      O.check_bits ("bcsc of_dense " ^ tag) s.Bcsc.values (O.bcsc_values s b);
      let s = Bcsc.prune_dense ~bm:3 ~bk:2 ~sparsity:0.5 b in
      O.check_bits ("bcsc prune " ^ tag) s.Bcsc.values (O.bcsc_values s b);
      O.check_bits ("bcsc to_dense " ^ tag) (Bcsc.to_dense s)
        (O.bcsc_to_dense s))
    dtypes

(* one fill over n elements is n [Prng.uniform] draws, and leaves the
   generator where they would *)
let test_fill_random_draws () =
  List.iter
    (fun dtype ->
      List.iter
        (fun n ->
          let r1 = Prng.create 77 and r2 = Prng.create 77 in
          let t = Tensor.create dtype [| n |] in
          Tensor.fill_random t r1 ~scale:0.5;
          let want =
            Tensor.init dtype [| n |] (fun _ -> Prng.uniform r2 ~scale:0.5)
          in
          O.check_bits (Printf.sprintf "%s x%d" (dt_name dtype) n) t want;
          checkb "next draw" true (Prng.next_int64 r1 = Prng.next_int64 r2))
        [ 1; 7; 4099 ])
    dtypes

(* the old Bcsc.random: the mask, then one draw per stored element in
   slot order; all-zero draws no payload *)
let test_bcsc_random_draws () =
  List.iter
    (fun (dtype, sparsity) ->
      let rows = 16 and cols = 12 and bm = 4 and bk = 3 in
      let r1 = Prng.create 5 and r2 = Prng.create 5 in
      let s = Bcsc.random ~rng:r1 ~dtype ~rows ~cols ~bm ~bk ~sparsity in
      let mask =
        Array.init (rows / bm) (fun _ ->
            Array.init (cols / bk) (fun _ ->
                not (Prng.bernoulli r2 ~p:sparsity)))
      in
      let want = Tensor.create dtype (Tensor.dims s.Bcsc.values) in
      let slot = ref 0 in
      for jb = 0 to (cols / bk) - 1 do
        for ib = 0 to (rows / bm) - 1 do
          if mask.(ib).(jb) then begin
            for i = 0 to bm - 1 do
              for j = 0 to bk - 1 do
                Tensor.set want [| !slot; i; j |] (Prng.uniform r2 ~scale:1.0)
              done
            done;
            incr slot
          end
        done
      done;
      let tag = Printf.sprintf "%s %.1f" (dt_name dtype) sparsity in
      checki ("stored " ^ tag) !slot (Bcsc.nnz_blocks s);
      O.check_bits ("values " ^ tag) s.Bcsc.values want;
      checkb ("next draw " ^ tag) true (Prng.next_int64 r1 = Prng.next_int64 r2))
    [ (Datatype.F32, 0.5); (Datatype.BF16, 0.3); (Datatype.F32, 1.0) ]

let copy1 ?(dtype = Datatype.F32) ~n ~src ~src_off ~ss ~dst ~dst_off ~ds () =
  Tensor.strided_copy dtype [| n |] ~src:src.Tensor.data ~src_off
    ~src_strides:[| ss |] ~dst:dst.Tensor.data ~dst_off ~dst_strides:[| ds |]

let test_strided_copy_contract () =
  let src = Tensor.init Datatype.F32 [| 6 |] (fun i -> float_of_int i.(0)) in
  let dst = Tensor.create Datatype.F32 [| 6 |] in
  (* a negative stride walks backwards *)
  copy1 ~n:6 ~src ~src_off:5 ~ss:(-1) ~dst ~dst_off:0 ~ds:1 ();
  checkb "reversed" true (Tensor.to_list dst = [ 5.; 4.; 3.; 2.; 1.; 0. ]);
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  rejects "source past the end" (fun () ->
      copy1 ~n:4 ~src ~src_off:3 ~ss:1 ~dst ~dst_off:0 ~ds:1 ());
  rejects "source before the start" (fun () ->
      copy1 ~n:2 ~src ~src_off:0 ~ss:(-1) ~dst ~dst_off:0 ~ds:1 ());
  rejects "destination past the end" (fun () ->
      copy1 ~n:3 ~src ~src_off:0 ~ss:1 ~dst ~dst_off:0 ~ds:3 ());
  rejects "rank mismatch" (fun () ->
      Tensor.strided_copy Datatype.F32 [| 2; 2 |] ~src:src.Tensor.data
        ~src_off:0 ~src_strides:[| 1 |] ~dst:dst.Tensor.data ~dst_off:0
        ~dst_strides:[| 2; 1 |]);
  (* nothing is stored before the check fails *)
  checkb "untouched on failure" true
    (Tensor.to_list dst = [ 5.; 4.; 3.; 2.; 1.; 0. ]);
  (* an empty copy neither stores nor checks *)
  copy1 ~n:0 ~src ~src_off:100 ~ss:1 ~dst ~dst_off:100 ~ds:1 ();
  (* a signalling NaN is stored quiet, its sign and payload kept *)
  let r = O.raw src in
  r.{0} <- 0x7FA00001l;
  r.{1} <- 0xFF800005l;
  List.iter
    (fun dtype ->
      copy1 ~dtype ~n:2 ~src ~src_off:0 ~ss:1 ~dst ~dst_off:0 ~ds:1 ();
      let d = O.raw dst in
      checkb ("quiet NaN " ^ dt_name dtype) true
        (d.{0} = 0x7FE00001l && d.{1} = 0xFFC00005l))
    dtypes

(* ---- Datatype ---- *)

let test_datatype_basics () =
  checki "bf16 bytes" 2 (Datatype.bytes Datatype.BF16);
  checki "f32 bytes" 4 (Datatype.bytes Datatype.F32);
  checki "bf16 vnni" 2 (Datatype.vnni_factor Datatype.BF16);
  checki "f32 vnni" 1 (Datatype.vnni_factor Datatype.F32);
  checkf "f32 quantize id" 1.234 (Datatype.quantize Datatype.F32 1.234)

let qt t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "tensor"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        ] );
      ( "bf16",
        [
          Alcotest.test_case "exact small values" `Quick test_bf16_exact_small_ints;
          Alcotest.test_case "round to nearest" `Quick test_bf16_truncates;
          Alcotest.test_case "nan/inf" `Quick test_bf16_nan_inf;
          Alcotest.test_case "bits roundtrip" `Quick test_bf16_bits_roundtrip;
          qt prop_bf16_idempotent;
          qt prop_bf16_relative_error;
          qt prop_bf16_monotone;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "create zeroed" `Quick test_tensor_create_zeroed;
          Alcotest.test_case "get/set" `Quick test_tensor_get_set;
          Alcotest.test_case "row-major init" `Quick test_tensor_init_rowmajor;
          Alcotest.test_case "bf16 stores quantize" `Quick
            test_tensor_bf16_store_quantizes;
          Alcotest.test_case "reshape" `Quick test_tensor_reshape;
          Alcotest.test_case "cast" `Quick test_tensor_cast;
          Alcotest.test_case "views" `Quick test_tensor_view;
          Alcotest.test_case "view sub" `Quick test_view_sub;
          Alcotest.test_case "copy independence" `Quick
            test_tensor_copy_independent;
          Alcotest.test_case "max_abs_diff" `Quick test_max_abs_diff;
        ] );
      ( "vnni",
        [
          qt prop_vnni_roundtrip;
          Alcotest.test_case "f32 identity" `Quick test_vnni_identity_f32;
          Alcotest.test_case "bf16 layout" `Quick test_vnni_layout;
        ] );
      ( "bcsc",
        [
          Alcotest.test_case "dense roundtrip" `Quick test_bcsc_roundtrip_dense;
          Alcotest.test_case "zero blocks dropped" `Quick
            test_bcsc_drops_zero_blocks;
          Alcotest.test_case "row blocks sorted" `Quick
            test_bcsc_row_blocks_sorted;
          qt prop_bcsc_random_roundtrip;
          Alcotest.test_case "prune hits target" `Quick
            test_prune_dense_hits_target;
          Alcotest.test_case "prune keeps largest" `Quick
            test_prune_keeps_largest;
        ] );
      ( "strided copy",
        [
          Alcotest.test_case "transforms keep their bits" `Quick
            test_tensor_transforms_bits;
          Alcotest.test_case "fill_random is uniform draws" `Quick
            test_fill_random_draws;
          Alcotest.test_case "bcsc random draws" `Quick test_bcsc_random_draws;
          Alcotest.test_case "extent, NaN, stride contract" `Quick
            test_strided_copy_contract;
        ] );
      ( "datatype",
        [ Alcotest.test_case "basics" `Quick test_datatype_basics ] );
    ]
