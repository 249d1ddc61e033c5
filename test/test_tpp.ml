(* Tests for the TPP backend: unary/binary ops, BRGEMM, SpMM, composite
   blocks and the dispatch cache. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf msg = Alcotest.(check (float 1e-5)) msg
let qt t = QCheck_alcotest.to_alcotest t

let tensor_of rows cols f =
  Tensor.init Datatype.F32 [| rows; cols |] (fun i -> f i.(0) i.(1))

let random_tensor ?(dtype = Datatype.F32) rng rows cols =
  let t = Tensor.create dtype [| rows; cols |] in
  Tensor.fill_random t rng ~scale:1.0;
  t

(* ---- unary ---- *)

let test_unary_pointwise () =
  let rng = Prng.create 1 in
  let x = random_tensor rng 4 5 in
  let check_op op f name =
    let y = Tensor.create Datatype.F32 [| 4; 5 |] in
    Tpp_unary.exec op ~inp:(Tensor.view2d x) ~out:(Tensor.view2d y);
    for i = 0 to 19 do
      Alcotest.(check (float 1e-6))
        name
        (f (Tensor.get_flat x i))
        (Tensor.get_flat y i)
    done
  in
  check_op Tpp_unary.Relu Reference.relu "relu";
  check_op Tpp_unary.Gelu Reference.gelu "gelu";
  check_op Tpp_unary.Sigmoid Reference.sigmoid "sigmoid";
  check_op Tpp_unary.Tanh tanh "tanh";
  check_op Tpp_unary.Square (fun v -> v *. v) "square";
  check_op Tpp_unary.Negate (fun v -> -.v) "negate";
  check_op Tpp_unary.Abs Float.abs "abs";
  check_op (Tpp_unary.Scale 2.5) (fun v -> 2.5 *. v) "scale";
  check_op (Tpp_unary.Shift (-1.0)) (fun v -> v -. 1.0) "shift";
  check_op Tpp_unary.Copy Fun.id "copy"

let test_unary_zero () =
  let y = tensor_of 3 3 (fun _ _ -> 7.0) in
  Tpp_unary.exec Tpp_unary.Zero ~inp:(Tensor.view2d y) ~out:(Tensor.view2d y);
  checkb "zeroed" true (List.for_all (( = ) 0.0) (Tensor.to_list y))

let test_relu_backward () =
  let g = tensor_of 2 2 (fun i j -> float_of_int ((i * 2) + j + 1)) in
  let x = tensor_of 2 2 (fun i j -> if (i + j) mod 2 = 0 then 1.0 else -1.0) in
  let dx = Tensor.create Datatype.F32 [| 2; 2 |] in
  Tpp_unary.exec2 Tpp_unary.Relu_backward ~inp:(Tensor.view2d g)
    ~aux:(Tensor.view2d x) ~out:(Tensor.view2d dx);
  checkf "passes where x>0" 1.0 (Tensor.get dx [| 0; 0 |]);
  checkf "blocks where x<=0" 0.0 (Tensor.get dx [| 0; 1 |])

let test_gelu_backward_finite_diff () =
  let xs = [ -2.0; -0.5; 0.0; 0.7; 1.9 ] in
  List.iter
    (fun x ->
      let g = tensor_of 1 1 (fun _ _ -> 1.0) in
      let xv = tensor_of 1 1 (fun _ _ -> x) in
      let dx = Tensor.create Datatype.F32 [| 1; 1 |] in
      Tpp_unary.exec2 Tpp_unary.Gelu_backward ~inp:(Tensor.view2d g)
        ~aux:(Tensor.view2d xv) ~out:(Tensor.view2d dx);
      let h = 1e-4 in
      let fd = (Reference.gelu (x +. h) -. Reference.gelu (x -. h)) /. (2. *. h) in
      Alcotest.(check (float 1e-3)) "gelu grad" fd (Tensor.get_flat dx 0))
    xs

let test_reduce () =
  let x = tensor_of 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let rs = Tensor.create Datatype.F32 [| 2; 1 |] in
  Tpp_unary.reduce Tpp_unary.Sum Tpp_unary.Rows ~inp:(Tensor.view2d x)
    ~out:(Tensor.view2d rs);
  checkf "row sum 0" 3.0 (Tensor.get rs [| 0; 0 |]);
  checkf "row sum 1" 12.0 (Tensor.get rs [| 1; 0 |]);
  let cs = Tensor.create Datatype.F32 [| 1; 3 |] in
  Tpp_unary.reduce Tpp_unary.Max Tpp_unary.Cols ~inp:(Tensor.view2d x)
    ~out:(Tensor.view2d cs);
  checkf "col max" 5.0 (Tensor.get cs [| 0; 2 |])

let test_transpose () =
  let x = tensor_of 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let y = Tensor.create Datatype.F32 [| 3; 2 |] in
  Tpp_unary.transpose ~inp:(Tensor.view2d x) ~out:(Tensor.view2d y);
  checkf "transposed" (Tensor.get x [| 1; 2 |]) (Tensor.get y [| 2; 1 |])

let test_broadcasts () =
  let row = tensor_of 1 3 (fun _ j -> float_of_int j) in
  let out = Tensor.create Datatype.F32 [| 2; 3 |] in
  Tpp_unary.broadcast_row ~inp:(Tensor.view2d row) ~out:(Tensor.view2d out);
  checkf "row bcast" 2.0 (Tensor.get out [| 1; 2 |]);
  let col = tensor_of 2 1 (fun i _ -> float_of_int (10 * i)) in
  Tpp_unary.broadcast_col ~inp:(Tensor.view2d col) ~out:(Tensor.view2d out);
  checkf "col bcast" 10.0 (Tensor.get out [| 1; 2 |])

(* ---- binary ---- *)

let test_binary_full () =
  let a = tensor_of 2 2 (fun i j -> float_of_int ((i * 2) + j)) in
  let b = tensor_of 2 2 (fun _ _ -> 2.0) in
  let out = Tensor.create Datatype.F32 [| 2; 2 |] in
  let run op =
    Tpp_binary.exec op ~bcast:Tpp_binary.Full ~a:(Tensor.view2d a)
      ~b:(Tensor.view2d b) ~out:(Tensor.view2d out)
  in
  run Tpp_binary.Add;
  checkf "add" 5.0 (Tensor.get out [| 1; 1 |]);
  run Tpp_binary.Mul;
  checkf "mul" 6.0 (Tensor.get out [| 1; 1 |]);
  run Tpp_binary.Sub;
  checkf "sub" 1.0 (Tensor.get out [| 1; 1 |]);
  run Tpp_binary.Div;
  checkf "div" 1.5 (Tensor.get out [| 1; 1 |]);
  run Tpp_binary.Max;
  checkf "max" 3.0 (Tensor.get out [| 1; 1 |]);
  run Tpp_binary.Min;
  checkf "min" 2.0 (Tensor.get out [| 1; 1 |])

let test_binary_broadcast_row_col () =
  let a = tensor_of 2 3 (fun _ _ -> 0.0) in
  let out = Tensor.create Datatype.F32 [| 2; 3 |] in
  let row = tensor_of 1 3 (fun _ j -> float_of_int j) in
  Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Row ~a:(Tensor.view2d a)
    ~b:(Tensor.view2d row) ~out:(Tensor.view2d out);
  checkf "row bias" 2.0 (Tensor.get out [| 1; 2 |]);
  let col = tensor_of 2 1 (fun i _ -> float_of_int (i + 1)) in
  Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Col ~a:(Tensor.view2d a)
    ~b:(Tensor.view2d col) ~out:(Tensor.view2d out);
  checkf "col bias" 2.0 (Tensor.get out [| 1; 0 |]);
  let s = tensor_of 1 1 (fun _ _ -> 9.0) in
  Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Scalar ~a:(Tensor.view2d a)
    ~b:(Tensor.view2d s) ~out:(Tensor.view2d out);
  checkf "scalar" 9.0 (Tensor.get out [| 0; 0 |])

let test_muladd_axpy () =
  let a = tensor_of 2 2 (fun _ _ -> 2.0) in
  let b = tensor_of 2 2 (fun _ _ -> 3.0) in
  let c = tensor_of 2 2 (fun _ _ -> 1.0) in
  let out = Tensor.create Datatype.F32 [| 2; 2 |] in
  Tpp_binary.muladd ~a:(Tensor.view2d a) ~b:(Tensor.view2d b)
    ~c:(Tensor.view2d c) ~out:(Tensor.view2d out);
  checkf "muladd" 7.0 (Tensor.get out [| 0; 0 |]);
  Tpp_binary.axpy ~alpha:0.5 ~a:(Tensor.view2d a) ~out:(Tensor.view2d out);
  checkf "axpy" 8.0 (Tensor.get out [| 0; 0 |])

(* ---- brgemm ---- *)

let test_brgemm_single () =
  let rng = Prng.create 2 in
  let a = random_tensor rng 8 6 and b = random_tensor rng 6 10 in
  let c = Tensor.create Datatype.F32 [| 8; 10 |] in
  let ker = Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:8 ~n:10 ~k:6 ()) in
  Brgemm.exec ker ~a:(Tensor.view2d a) ~b:(Tensor.view2d b)
    ~c:(Tensor.view2d c);
  let expect = Reference.matmul a b in
  checkb "single gemm" true (Tensor.approx_equal ~tol:1e-5 c expect)

let test_brgemm_beta1_accumulates () =
  let rng = Prng.create 3 in
  let a = random_tensor rng 4 4 and b = random_tensor rng 4 4 in
  let c = tensor_of 4 4 (fun _ _ -> 1.0) in
  let ker = Brgemm.compile (Brgemm.make_config ~beta:1.0 ~m:4 ~n:4 ~k:4 ()) in
  Brgemm.exec ker ~a:(Tensor.view2d a) ~b:(Tensor.view2d b)
    ~c:(Tensor.view2d c);
  let expect = Reference.matmul a b in
  checkf "accumulated" (1.0 +. Tensor.get expect [| 2; 2 |]) (Tensor.get c [| 2; 2 |])

let test_brgemm_stride_batch () =
  (* sum of 3 chunked products == full K product *)
  let rng = Prng.create 4 in
  let a = random_tensor rng 4 12 and b = random_tensor rng 12 5 in
  let c = Tensor.create Datatype.F32 [| 4; 5 |] in
  let ker = Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:4 ~n:5 ~k:4 ()) in
  (* A chunks at column offsets 0,4,8; B chunks at row offsets 0,4,8 *)
  Brgemm.exec_stride ker ~a:(Tensor.view2d a) ~b:(Tensor.view2d b)
    ~c:(Tensor.view2d c) ~stride_a:4 ~stride_b:(4 * 5) ~count:3;
  checkb "batched = full" true
    (Tensor.approx_equal ~tol:1e-5 c (Reference.matmul a b))

let test_brgemm_offsets () =
  let rng = Prng.create 5 in
  let a = random_tensor rng 4 8 and b = random_tensor rng 8 5 in
  let c = Tensor.create Datatype.F32 [| 4; 5 |] in
  let ker = Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:4 ~n:5 ~k:4 ()) in
  Brgemm.exec_offsets ker ~a:(Tensor.view2d a) ~b:(Tensor.view2d b)
    ~c:(Tensor.view2d c) ~offs_a:[| 0; 4 |] ~offs_b:[| 0; 20 |];
  checkb "offsets = full" true
    (Tensor.approx_equal ~tol:1e-5 c (Reference.matmul a b))

let test_brgemm_list () =
  let rng = Prng.create 6 in
  let a1 = random_tensor rng 3 4 and b1 = random_tensor rng 4 3 in
  let a2 = random_tensor rng 3 4 and b2 = random_tensor rng 4 3 in
  let c = Tensor.create Datatype.F32 [| 3; 3 |] in
  let ker = Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:3 ~n:3 ~k:4 ()) in
  Brgemm.exec_list ker
    ~ab:[ (Tensor.view2d a1, Tensor.view2d b1);
          (Tensor.view2d a2, Tensor.view2d b2) ]
    ~c:(Tensor.view2d c);
  let e1 = Reference.matmul a1 b1 and e2 = Reference.matmul a2 b2 in
  checkf "list sum" (Tensor.get e1 [| 1; 1 |] +. Tensor.get e2 [| 1; 1 |])
    (Tensor.get c [| 1; 1 |])

let test_brgemm_vnni () =
  let rng = Prng.create 7 in
  let a = random_tensor ~dtype:Datatype.BF16 rng 4 6 in
  let b = random_tensor ~dtype:Datatype.BF16 rng 6 5 in
  let bp = Vnni.pack b in
  let c = Tensor.create Datatype.F32 [| 4; 5 |] in
  let ker =
    Brgemm.compile
      (Brgemm.make_config ~dtype:Datatype.BF16 ~b_layout:Brgemm.Vnni ~beta:0.0
         ~m:4 ~n:5 ~k:6 ())
  in
  let bv = Tensor.view_flat bp ~off:0 ~rows:3 ~cols:10 ~ld:10 in
  Brgemm.exec ker ~a:(Tensor.view2d a) ~b:bv ~c:(Tensor.view2d c);
  checkb "vnni matches flat" true
    (Tensor.approx_equal ~tol:1e-5 c (Reference.matmul a b))

let prop_brgemm_matches_reference =
  QCheck.Test.make ~name:"brgemm == naive matmul (random shapes)" ~count:40
    QCheck.(triple (int_range 1 12) (int_range 1 12) (int_range 1 12))
    (fun (m, n, k) ->
      let rng = Prng.create ((m * 1000) + (n * 50) + k) in
      let a = random_tensor rng m k and b = random_tensor rng k n in
      let c = Tensor.create Datatype.F32 [| m; n |] in
      let ker = Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m ~n ~k ()) in
      Brgemm.exec ker ~a:(Tensor.view2d a) ~b:(Tensor.view2d b)
        ~c:(Tensor.view2d c);
      Tensor.approx_equal ~tol:1e-4 c (Reference.matmul a b))

(* ---- native kernel vs the OCaml reference, bit for bit ---- *)

type form = Stride | Offsets | List

let form_name = function
  | Stride -> "stride"
  | Offsets -> "offsets"
  | List -> "list"

(* first flat index where [x] and [y] differ as FP32 bit patterns *)
let first_bit_mismatch x y =
  let n = Tensor.numel x in
  let rec go i =
    if i >= n then None
    else if
      Int32.bits_of_float (Tensor.get_flat x i)
      <> Int32.bits_of_float (Tensor.get_flat y i)
    then Some i
    else go (i + 1)
  in
  go 0

(* The values the accumulator contract treats specially, in the three
   classes the native kernel screens for, each drawn on its own: +-0 and
   NaN in A (with some rows zero in every batch, as conv's padding rows
   are) and +-0 in B; +-inf and NaN in B; +-0 in C. *)
type specials = { zeros : bool; nonfinite : bool; negzero : bool }

let all_specials = { zeros = true; nonfinite = true; negzero = true }

let specials_name s =
  String.concat "+"
    (List.filter_map
       (fun (on, name) -> if on then Some name else None)
       [ (s.zeros, "zeros"); (s.nonfinite, "nonfinite"); (s.negzero, "negzero") ])

(* An operand value: uniform, or sometimes one of the special values of
   the classes [s] turns on. *)
let draw rng s which =
  let u = Prng.float rng in
  match which with
  | `A when s.zeros && u < 0.2 ->
    if u < 0.08 then 0.0 else if u < 0.16 then -0.0 else Float.nan
  | `B when s.nonfinite && u < 0.06 ->
    if u < 0.02 then Float.infinity
    else if u < 0.04 then Float.neg_infinity
    else Float.nan
  | `B when s.zeros && u < 0.16 -> if u < 0.11 then 0.0 else -0.0
  | `C when s.negzero && u < 0.2 -> if u < 0.05 then 0.0 else -0.0
  | _ -> Prng.uniform rng ~scale:2.0

let filled rng s which dtype len =
  let t = Tensor.create dtype [| len |] in
  for i = 0 to len - 1 do
    Tensor.set_flat t i (draw rng s which)
  done;
  t

(* The kernel windows' shapes (m, n, k, count): GEMM 32x32x32, conv
   56x32x32 over 9 taps and SpMM 16x32x16 over 6 blocks, and the full-K
   calls: the 512^3 GEMM's 16 K blocks and conv at c_step = 2, 18 taps.
   The kernel cuts a call's depth (count * k rows) into even chunks of at
   most 113 rows on avx512, 341 on avx2 and 512 on baseline, and parks
   the partial sums between them. The deep shapes take from 1 to 23
   chunks: 288 rows (3 on avx512), 512 (5 on avx512, 2 on avx2), 1536
   and 2560 (several on every clone). The wide one (272 columns) takes
   two column groups on every clone, and the tall one (520 rows, 3
   chunks on avx512) takes two row blocks of partial sums there. *)
let window_shapes =
  [| (32, 32, 32, 1); (56, 32, 32, 9); (16, 32, 16, 6); (32, 32, 32, 16);
     (56, 32, 32, 18) |]

let deep_shapes =
  [| (6, 72, 32, 9); (8, 40, 64, 8); (5, 20, 64, 24); (5, 12, 64, 40);
     (6, 272, 32, 3); (520, 8, 64, 4) |]

(* One case: a shape (m, n not multiples of the register tile, padded
   leading dimensions), an exec form, beta, flat FP32 or VNNI BF16 B, an
   FP32 or BF16 C, and the special classes. Both kernels start from the
   same C buffer, and the whole buffer (padding included) must come out
   bit-identical. *)
let native_vs_reference_case rng ~isa case =
  let vnni = Prng.bernoulli rng ~p:0.5 in
  let dtype = if vnni then Datatype.BF16 else Datatype.F32 in
  let v = Datatype.vnni_factor dtype in
  let c_dtype =
    if Prng.bernoulli rng ~p:0.5 then Datatype.BF16 else Datatype.F32
  in
  let beta = if Prng.bernoulli rng ~p:0.5 then 1.0 else 0.0 in
  let form =
    match Prng.int rng 3 with 0 -> Stride | 1 -> Offsets | _ -> List
  in
  let specials =
    { zeros = Prng.bernoulli rng ~p:0.5;
      nonfinite = Prng.bernoulli rng ~p:0.3;
      negzero = Prng.bernoulli rng ~p:0.5 }
  in
  let m, n, k, count =
    let fixed = Array.append window_shapes deep_shapes in
    if case < 8 * Array.length fixed then fixed.(case mod Array.length fixed)
    else
      ( 1 + Prng.int rng 56,
        1 + Prng.int rng 40,
        v * (1 + Prng.int rng (32 / v)),
        Prng.int rng 10 )
  in
  let lda = k + Prng.int rng 3 in
  let b_rows = k / v and b_cols = n * v in
  let ldb = b_cols + Prng.int rng 3 in
  let ldc = n + Prng.int rng 3 in
  (* batch blocks live in slots of a shared buffer per operand *)
  let slots = max 1 count + Prng.int rng 2 in
  let slot_a = (m * lda) + Prng.int rng 3
  and slot_b = (b_rows * ldb) + Prng.int rng 3 in
  let a =
    filled rng specials `A dtype ((slots * slot_a) + Prng.int rng 4)
  in
  if specials.zeros then
    for i = 0 to m - 1 do
      if Prng.bernoulli rng ~p:0.15 then
        for slot = 0 to slots - 1 do
          for p = 0 to k - 1 do
            Tensor.set_flat a ((slot * slot_a) + (i * lda) + p) 0.0
          done
        done
    done;
  let b =
    filled rng specials `B dtype ((slots * slot_b) + Prng.int rng 4)
  in
  let c_off = Prng.int rng 3 in
  let c0 =
    filled rng specials `C c_dtype (c_off + (m * ldc) + Prng.int rng 4)
  in
  let a_at off = Tensor.view_flat a ~off ~rows:m ~cols:k ~ld:lda in
  let b_at off = Tensor.view_flat b ~off ~rows:b_rows ~cols:b_cols ~ld:ldb in
  let pick slot = Array.init count (fun _ -> slot * Prng.int rng slots) in
  let offs_a = pick slot_a and offs_b = pick slot_b in
  let ker =
    Brgemm.compile
      (Brgemm.make_config ~dtype
         ~b_layout:(if vnni then Brgemm.Vnni else Brgemm.Flat)
         ~beta ~m ~n ~k ())
  in
  let run exec_stride exec_offsets exec_list =
    let c = Tensor.copy c0 in
    let cv = Tensor.view_flat c ~off:c_off ~rows:m ~cols:n ~ld:ldc in
    (match form with
    | Stride ->
      exec_stride ker ~a:(a_at 0) ~b:(b_at 0) ~c:cv ~stride_a:slot_a
        ~stride_b:slot_b ~count
    | Offsets -> exec_offsets ker ~a:(a_at 0) ~b:(b_at 0) ~c:cv ~offs_a ~offs_b
    | List ->
      exec_list ker
        ~ab:(List.init count (fun i -> (a_at offs_a.(i), b_at offs_b.(i))))
        ~c:cv);
    c
  in
  let native = run Brgemm.exec_stride Brgemm.exec_offsets Brgemm.exec_list in
  let reference =
    run Brgemm.Reference.exec_stride Brgemm.Reference.exec_offsets
      Brgemm.Reference.exec_list
  in
  match first_bit_mismatch native reference with
  | None -> ()
  | Some i ->
    Alcotest.failf
      "%s case %d: %s m=%d n=%d k=%d B=%s C=%s beta=%g count=%d lda=%d ldb=%d \
       ldc=%d specials=%s: C[%d] native %08lx, reference %08lx"
      isa case (form_name form) m n k
      (if vnni then "vnni-bf16" else "flat-f32")
      (Datatype.to_string c_dtype) beta count lda ldb ldc
      (specials_name specials) i
      (Int32.bits_of_float (Tensor.get_flat native i))
      (Int32.bits_of_float (Tensor.get_flat reference i))

(* beta = 1 with C = -0 and finite positive B, 1280 rows deep, so every
   clone parks partial sums between chunks. Row 0 of A is zero over the
   whole depth: its outputs stay -0 only if the skip branch runs in every
   chunk, which only the -0 screen on the parked partial sums decides
   right. Row 1 is zero over its first 600 depth rows, the first chunk
   and the start of the second on every clone. *)
let negzero_across_chunks_case ~isa =
  let m = 8 and n = 16 and k = 32 and count = 40 in
  let rng = Prng.create 17 in
  let a = Tensor.create Datatype.F32 [| count * m * k |] in
  for i = 0 to count - 1 do
    for r = 0 to m - 1 do
      for p = 0 to k - 1 do
        let zero = r = 0 || (r = 1 && (i * k) + p < 600) in
        Tensor.set_flat a
          ((((i * m) + r) * k) + p)
          (if zero then 0.0 else Prng.uniform rng ~scale:2.0)
      done
    done
  done;
  let b = Tensor.create Datatype.F32 [| count * k * n |] in
  for i = 0 to (count * k * n) - 1 do
    Tensor.set_flat b i (0.5 +. Prng.float rng)
  done;
  let c0 = Tensor.create Datatype.F32 [| m * n |] in
  Tensor.fill c0 (-0.0);
  let ker = Brgemm.compile (Brgemm.make_config ~beta:1.0 ~m ~n ~k ()) in
  let run exec_stride =
    let c = Tensor.copy c0 in
    exec_stride ker
      ~a:(Tensor.view_flat a ~off:0 ~rows:m ~cols:k ~ld:k)
      ~b:(Tensor.view_flat b ~off:0 ~rows:k ~cols:n ~ld:n)
      ~c:(Tensor.view_flat c ~off:0 ~rows:m ~cols:n ~ld:n)
      ~stride_a:(m * k) ~stride_b:(k * n) ~count;
    c
  in
  let native = run Brgemm.exec_stride
  and reference = run Brgemm.Reference.exec_stride in
  match first_bit_mismatch native reference with
  | None -> ()
  | Some i ->
    Alcotest.failf "%s -0 across chunks: C[%d] native %08lx, reference %08lx"
      isa i
      (Int32.bits_of_float (Tensor.get_flat native i))
      (Int32.bits_of_float (Tensor.get_flat reference i))

(* The same cases on every clone of the native kernel this host can
   execute, not only the one CPUID picks. *)
let test_brgemm_native_matches_reference () =
  let isas = Brgemm.For_tests.isas in
  checkb "the baseline clone runs anywhere" true (List.mem "baseline" isas);
  List.iter
    (fun isa ->
      Brgemm.For_tests.with_isa isa (fun () ->
          checks "clone selected" isa (Brgemm.For_tests.isa ());
          let rng = Prng.create 2024 in
          for case = 0 to 1199 do
            native_vs_reference_case rng ~isa case
          done;
          negzero_across_chunks_case ~isa))
    isas;
  match Brgemm.For_tests.with_isa "sse9" ignore with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "an unknown clone was accepted"

(* Every exec form refuses, before entering native code, a call whose
   batch would reach past its buffer. *)
let test_brgemm_bounds_checked () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  let ker = Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:4 ~n:4 ~k:4 ()) in
  let buf len = Tensor.create Datatype.F32 [| len |] in
  let a = buf 32 and b = buf 32 and c = buf 20 in
  let blk t off = Tensor.view_flat t ~off ~rows:4 ~cols:4 ~ld:4 in
  let stride ~stride_a ~stride_b ~count () =
    Brgemm.exec_stride ker ~a:(blk a 0) ~b:(blk b 0) ~c:(blk c 0) ~stride_a
      ~stride_b ~count
  in
  let offsets offs_a offs_b () =
    Brgemm.exec_offsets ker ~a:(blk a 0) ~b:(blk b 0) ~c:(blk c 0) ~offs_a
      ~offs_b
  in
  (* two 16-element blocks per buffer are in range *)
  stride ~stride_a:16 ~stride_b:16 ~count:2 ();
  expect_invalid "stride: A past the end"
    (stride ~stride_a:16 ~stride_b:16 ~count:3);
  expect_invalid "stride: B past the end"
    (stride ~stride_a:16 ~stride_b:17 ~count:2);
  expect_invalid "stride: A before the start"
    (stride ~stride_a:(-1) ~stride_b:16 ~count:2);
  offsets [| 16; 0 |] [| 0; 16 |] ();
  expect_invalid "offsets: A past the end" (offsets [| 0; 17 |] [| 0; 16 |]);
  expect_invalid "offsets: B before the start"
    (offsets [| 0; 16 |] [| -1; 0 |]);
  expect_invalid "offsets: lengths differ" (offsets [| 0 |] [| 0; 16 |]);
  let list ?(cv = blk c 0) ab () = Brgemm.exec_list ker ~ab ~c:cv in
  let b_short = Tensor.view_flat b ~off:20 ~rows:3 ~cols:4 ~ld:4 in
  list [ (blk a 0, blk b 0); (blk a 16, blk b 16) ] ();
  expect_invalid "list: a later B past the end"
    (list
       [ (blk a 0, blk b 0);
         (blk a 16, { b_short with Tensor.View.rows = 4 }) ]);
  let c_past_end = { (blk c 4) with Tensor.View.off = 5 } in
  expect_invalid "C past the end" (fun () ->
      Brgemm.exec ker ~a:(blk a 0) ~b:(blk b 0) ~c:c_past_end);
  expect_invalid "list: empty batch, C past the end" (list [] ~cv:c_past_end)

(* ---- spmm tpp ---- *)

let test_spmm_tpp_block_row () =
  let rng = Prng.create 8 in
  let a =
    Bcsc.random ~rng ~dtype:Datatype.F32 ~rows:16 ~cols:24 ~bm:4 ~bk:8
      ~sparsity:0.4
  in
  let b = random_tensor rng 24 10 in
  let bp = Vnni.pack b in
  let ker = Spmm.compile (Spmm.make_config ~beta:0.0 ~n:10 ~bm:4 ~bk:8 ()) in
  let c = Tensor.create Datatype.F32 [| 4; 10 |] in
  Spmm.exec ker ~a ~block_row:2
    ~b:(Tensor.view_flat bp ~off:0 ~rows:24 ~cols:10 ~ld:10)
    ~col:0 ~c:(Tensor.view2d c);
  let full = Reference.matmul (Bcsc.to_dense a) b in
  let expect =
    Tensor.init Datatype.F32 [| 4; 10 |] (fun i ->
        Tensor.get full [| 8 + i.(0); i.(1) |])
  in
  checkb "block row 2" true (Tensor.approx_equal ~tol:1e-5 c expect)

(* Native SpMM equals the reference offsets-form BRGEMM it is defined
   by: one batch per stored block of the row, bit for bit. *)
let test_spmm_native_matches_reference_offsets () =
  let rng = Prng.create 77 in
  for case = 0 to 59 do
    let dtype = if case mod 2 = 0 then Datatype.F32 else Datatype.BF16 in
    let v = Datatype.vnni_factor dtype in
    let bm = 1 + Prng.int rng 6 and bk = v * (1 + Prng.int rng 4) in
    let n = 1 + Prng.int rng 20 in
    let mb = 1 + Prng.int rng 3 and kb = 1 + Prng.int rng 4 in
    let nb = 1 + Prng.int rng 2 in
    let rows = mb * bm and cols = kb * bk and ncols = nb * n in
    (* whole zero blocks are dropped; +-0 and NaN remain inside blocks *)
    let keep = Array.init (mb * kb) (fun _ -> Prng.bernoulli rng ~p:0.6) in
    let dense =
      Tensor.init dtype [| rows; cols |] (fun i ->
          if keep.((i.(0) / bm * kb) + (i.(1) / bk)) then
            draw rng all_specials `A
          else 0.0)
    in
    let a = Bcsc.of_dense ~bm ~bk dense in
    let bp =
      Vnni.pack
        (Tensor.init dtype [| cols; ncols |] (fun _ ->
             draw rng
               { all_specials with nonfinite = case mod 3 = 0 }
               `B))
    in
    let ldb = ncols * v in
    let beta = if Prng.bernoulli rng ~p:0.5 then 1.0 else 0.0 in
    let c_dtype = if case mod 4 < 2 then Datatype.F32 else Datatype.BF16 in
    let ker = Spmm.compile (Spmm.make_config ~dtype ~beta ~n ~bm ~bk ()) in
    let rker =
      Brgemm.compile
        (Brgemm.make_config ~dtype
           ~b_layout:(if v = 1 then Brgemm.Flat else Brgemm.Vnni)
           ~beta ~m:bm ~n ~k:bk ())
    in
    for ib = 0 to mb - 1 do
      for jn = 0 to nb - 1 do
        let c0 = filled rng all_specials `C c_dtype (bm * n) in
        let c1 = Tensor.copy c0 and c2 = Tensor.copy c0 in
        let cv t = Tensor.view_flat t ~off:0 ~rows:bm ~cols:n ~ld:n in
        Spmm.exec ker ~a ~block_row:ib
          ~b:(Tensor.view_flat bp ~off:0 ~rows:(cols / v) ~cols:ldb ~ld:ldb)
          ~col:(jn * n) ~c:(cv c1);
        let blocks = a.Bcsc.row_index.(ib) in
        Brgemm.Reference.exec_offsets rker ~a:(Bcsc.block_view a 0)
          ~b:
            (Tensor.view_flat bp ~off:(jn * n * v) ~rows:(bk / v) ~cols:(n * v)
               ~ld:ldb)
          ~c:(cv c2)
          ~offs_a:(Array.map (fun (_, slot) -> slot * bm * bk) blocks)
          ~offs_b:(Array.map (fun (jb, _) -> jb * bk / v * ldb) blocks);
        match first_bit_mismatch c1 c2 with
        | None -> ()
        | Some i ->
          Alcotest.failf "case %d (%s, bm=%d bk=%d n=%d) row %d col %d: C[%d]"
            case (Datatype.to_string dtype) bm bk n ib jn i
      done
    done
  done

let test_spmm_col_bounds_checked () =
  let rng = Prng.create 78 in
  let a =
    Bcsc.random ~rng ~dtype:Datatype.F32 ~rows:8 ~cols:16 ~bm:4 ~bk:8
      ~sparsity:0.0
  in
  let bp = Vnni.pack (random_tensor rng 16 8) in
  let ker = Spmm.compile (Spmm.make_config ~beta:0.0 ~n:4 ~bm:4 ~bk:8 ()) in
  let c = Tensor.create Datatype.F32 [| 4; 4 |] in
  let exec col =
    Spmm.exec ker ~a ~block_row:1
      ~b:(Tensor.view_flat bp ~off:0 ~rows:16 ~cols:8 ~ld:8)
      ~col ~c:(Tensor.view2d c)
  in
  exec 4;
  match exec 5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "col past B's last column: expected Invalid_argument"

(* ---- composite blocks ---- *)

let test_softmax_matches_reference () =
  let rng = Prng.create 9 in
  let x = random_tensor rng 5 7 in
  let y = Tensor.create Datatype.F32 [| 5; 7 |] in
  Blocks.softmax_rows ~scale:1.0 ~inp:(Tensor.view2d x)
    ~out:(Tensor.view2d y) ();
  checkb "softmax" true
    (Tensor.approx_equal ~tol:1e-5 y (Reference.softmax_rows x))

let prop_softmax_rows_sum_to_one =
  QCheck.Test.make ~name:"softmax rows sum to 1" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 16))
    (fun (r, c) ->
      let rng = Prng.create ((r * 31) + c) in
      let x = random_tensor rng r c in
      let y = Tensor.create Datatype.F32 [| r; c |] in
      Blocks.softmax_rows ~scale:1.0 ~inp:(Tensor.view2d x)
        ~out:(Tensor.view2d y) ();
      let ok = ref true in
      for i = 0 to r - 1 do
        let s = ref 0.0 in
        for j = 0 to c - 1 do
          let v = Tensor.get y [| i; j |] in
          if v < 0.0 then ok := false;
          s := !s +. v
        done;
        if Float.abs (!s -. 1.0) > 1e-4 then ok := false
      done;
      !ok)

let test_softmax_backward () =
  (* numeric check of the Jacobian-vector product *)
  let x = tensor_of 1 3 (fun _ j -> float_of_int j *. 0.5) in
  let y = Tensor.create Datatype.F32 [| 1; 3 |] in
  Blocks.softmax_rows ~scale:1.0 ~inp:(Tensor.view2d x)
    ~out:(Tensor.view2d y) ();
  let dy = tensor_of 1 3 (fun _ j -> float_of_int (j + 1)) in
  let dx = Tensor.create Datatype.F32 [| 1; 3 |] in
  Blocks.softmax_rows_backward ~y:(Tensor.view2d y) ~dy:(Tensor.view2d dy)
    ~dx:(Tensor.view2d dx);
  let h = 1e-4 in
  for j = 0 to 2 do
    let xp = Tensor.copy x and xm = Tensor.copy x in
    Tensor.set xp [| 0; j |] (Tensor.get x [| 0; j |] +. h);
    Tensor.set xm [| 0; j |] (Tensor.get x [| 0; j |] -. h);
    let fp = Reference.softmax_rows xp and fm = Reference.softmax_rows xm in
    let fd = ref 0.0 in
    for l = 0 to 2 do
      fd :=
        !fd
        +. (Tensor.get dy [| 0; l |]
            *. (Tensor.get fp [| 0; l |] -. Tensor.get fm [| 0; l |])
            /. (2.0 *. h))
    done;
    Alcotest.(check (float 1e-3)) "softmax bwd" !fd (Tensor.get dx [| 0; j |])
  done

(* A score: uniform, a large magnitude, or one of +-NaN, +-inf, +-0. *)
let score_value rng =
  let u = Prng.float rng in
  if u < 0.015 then Float.nan
  else if u < 0.03 then -.Float.nan
  else if u < 0.06 then Float.infinity
  else if u < 0.09 then Float.neg_infinity
  else if u < 0.12 then -0.0
  else if u < 0.15 then 0.0
  else if u < 0.2 then Prng.uniform rng ~scale:1e3
  else Prng.uniform rng ~scale:4.0

let check_same_bits what expect got =
  for i = 0 to Tensor.numel expect - 1 do
    let e = Int32.bits_of_float (Tensor.get_flat expect i)
    and g = Int32.bits_of_float (Tensor.get_flat got i) in
    if e <> g then
      Alcotest.failf "%s: element %d is %08lx, expected %08lx" what i g e
  done

(* Attention's score passes before they became one, kept as the oracle:
   scale, then the causal mask store, then the softmax as
   [Blocks.softmax_rows] computed it, all through [View.get] and
   [View.set]. *)
let scores_in_three_passes ~scale ~causal s =
  let module View = Tensor.View in
  let v = Tensor.view2d s in
  Tpp_unary.exec (Tpp_unary.Scale scale) ~inp:v ~out:v;
  (match causal with
  | None -> ()
  | Some offset ->
    let d = Tensor.dims s in
    for i = 0 to d.(0) - 1 do
      for j = i + offset + 1 to d.(1) - 1 do
        Tensor.set s [| i; j |] (-1e30)
      done
    done);
  for i = 0 to v.View.rows - 1 do
    let mx = ref neg_infinity in
    for j = 0 to v.View.cols - 1 do
      mx := Float.max !mx (View.get v i j)
    done;
    let sum = ref 0.0 in
    for j = 0 to v.View.cols - 1 do
      let e = exp (View.get v i j -. !mx) in
      View.set v i j e;
      sum := !sum +. e
    done;
    let inv = 1.0 /. !sum in
    for j = 0 to v.View.cols - 1 do
      View.set v i j (View.get v i j *. inv)
    done
  done

let test_softmax_scores_one_pass () =
  let rng = Prng.create 61 in
  let scale = 1.0 /. sqrt 16.0 in
  List.iter
    (fun (nq, past, causal) ->
      let nk = nq + past in
      let s = Tensor.init Datatype.F32 [| nq; nk |] (fun _ -> score_value rng) in
      (* one row whose unmasked scores are all -inf *)
      let r = nq / 2 in
      let live = if causal then r + past + 1 else nk in
      for j = 0 to live - 1 do
        Tensor.set s [| r; j |] Float.neg_infinity
      done;
      (* and, where there are 4 columns, a first row holding NaNs of both
         signs: the max, the sum and each output then carry different
         NaNs, so the operand order of every step shows *)
      if nk >= 4 && r > 0 then
        List.iteri
          (fun j x -> Tensor.set s [| 0; j |] x)
          [ 1.0; -.Float.nan; Float.nan; 2.0 ];
      let causal = if causal then Some past else None in
      let expect = Tensor.copy s in
      scores_in_three_passes ~scale ~causal expect;
      let what =
        Printf.sprintf "nq %d, nk %d, %s" nq nk
          (if causal = None then "full" else "causal")
      in
      (* in place, as attention runs it, and into another tensor *)
      let inplace = Tensor.copy s in
      Blocks.softmax_rows ~scale ?causal ~inp:(Tensor.view2d inplace)
        ~out:(Tensor.view2d inplace) ();
      check_same_bits (what ^ ", in place") expect inplace;
      let out = Tensor.create Datatype.F32 [| nq; nk |] in
      Blocks.softmax_rows ~scale ?causal ~inp:(Tensor.view2d s)
        ~out:(Tensor.view2d out) ();
      check_same_bits what expect out)
    (List.concat_map
       (fun nq ->
         List.concat_map
           (fun past -> [ (nq, past, false); (nq, past, true) ])
           [ 0; 9 ])
       [ 1; 3; 24 ])

let test_swiglu_one_pass () =
  let rng = Prng.create 62 in
  let rows = 9 and cols = 37 in
  let mk () =
    Tensor.init Datatype.F32 [| rows; cols |] (fun _ -> score_value rng)
  in
  let gate = mk () and u = mk () in
  let v = Tensor.view2d in
  (* the three TPP calls SwiGLU ran before *)
  let expect = Tensor.copy u and g = Tensor.copy gate in
  let s = Tensor.create Datatype.F32 [| rows; cols |] in
  Tpp_unary.exec Tpp_unary.Sigmoid ~inp:(v g) ~out:(v s);
  Tpp_binary.exec Tpp_binary.Mul ~bcast:Tpp_binary.Full ~a:(v g) ~b:(v s)
    ~out:(v g);
  Tpp_binary.exec Tpp_binary.Mul ~bcast:Tpp_binary.Full ~a:(v expect) ~b:(v g)
    ~out:(v expect);
  let got = Tensor.copy u in
  Blocks.swiglu ~gate:(v gate) ~inp:(v got) ~out:(v got);
  check_same_bits "swiglu" expect got

(* [Tpp_binary.exec] as it was, through closures and [View.get] /
   [View.set], kept as the oracle of the inlined loop *)
let binary_exec_with_closures op bcast ~a ~b ~out =
  let module View = Tensor.View in
  let f =
    match op with
    | Tpp_binary.Add -> ( +. )
    | Tpp_binary.Sub -> ( -. )
    | Tpp_binary.Mul -> ( *. )
    | Tpp_binary.Div -> ( /. )
    | Tpp_binary.Max -> Float.max
    | Tpp_binary.Min -> Float.min
  in
  let bval i j =
    match bcast with
    | Tpp_binary.Full -> View.get b i j
    | Tpp_binary.Row -> View.get b 0 j
    | Tpp_binary.Col -> View.get b i 0
    | Tpp_binary.Scalar -> View.get b 0 0
  in
  for i = 0 to out.View.rows - 1 do
    for j = 0 to out.View.cols - 1 do
      View.set out i j (f (View.get a i j) (bval i j))
    done
  done

let test_binary_matches_closures () =
  let rng = Prng.create 63 in
  let rows = 9 and cols = 37 in
  (* NaNs of both signs in both operands, so pairs of them meet *)
  let value i =
    match i mod 4 with
    | 0 -> Float.nan
    | 1 -> -.Float.nan
    | _ -> score_value rng
  in
  List.iter
    (fun (bcast, br, bc) ->
      List.iter
        (fun op ->
          List.iter
            (fun dtype ->
              let a =
                Tensor.init dtype [| rows; cols |] (fun i ->
                    value (i.(0) + (i.(1) / 2)))
              in
              let b = Tensor.init dtype [| br; bc |] (fun i -> value i.(1)) in
              let v = Tensor.view2d in
              let expect = Tensor.copy a and got = Tensor.copy a in
              binary_exec_with_closures op bcast ~a:(v expect) ~b:(v b)
                ~out:(v expect);
              Tpp_binary.exec op ~bcast ~a:(v got) ~b:(v b) ~out:(v got);
              check_same_bits
                (Printf.sprintf "%s %s" (Tpp_binary.op_to_string op)
                   (Datatype.to_string dtype))
                expect got)
            [ Datatype.F32; Datatype.BF16 ])
        Tpp_binary.[ Add; Sub; Mul; Div; Max; Min ])
    Tpp_binary.
      [ (Full, rows, cols); (Row, 1, cols); (Col, rows, 1); (Scalar, 1, 1) ]

let test_layernorm_matches_reference () =
  let rng = Prng.create 10 in
  let x = random_tensor rng 4 8 in
  let gamma = tensor_of 1 8 (fun _ j -> 1.0 +. (0.1 *. float_of_int j)) in
  let beta = tensor_of 1 8 (fun _ j -> 0.05 *. float_of_int j) in
  let y = Tensor.create Datatype.F32 [| 4; 8 |] in
  let _ =
    Blocks.layernorm_rows ~eps:1e-5 ~inp:(Tensor.view2d x)
      ~gamma:(Tensor.view2d gamma) ~beta:(Tensor.view2d beta)
      ~out:(Tensor.view2d y)
  in
  let g = Array.init 8 (fun j -> Tensor.get gamma [| 0; j |]) in
  let b = Array.init 8 (fun j -> Tensor.get beta [| 0; j |]) in
  checkb "layernorm" true
    (Tensor.approx_equal ~tol:1e-4 y (Reference.layernorm_rows ~eps:1e-5 x g b))

let prop_layernorm_normalizes =
  QCheck.Test.make ~name:"layernorm rows: mean 0, var 1 (unit gamma)"
    ~count:30
    QCheck.(pair (int_range 1 6) (int_range 4 24))
    (fun (r, c) ->
      let rng = Prng.create ((r * 77) + c) in
      let x = random_tensor rng r c in
      let gamma = tensor_of 1 c (fun _ _ -> 1.0) in
      let beta = tensor_of 1 c (fun _ _ -> 0.0) in
      let y = Tensor.create Datatype.F32 [| r; c |] in
      let _ =
        Blocks.layernorm_rows ~eps:1e-9 ~inp:(Tensor.view2d x)
          ~gamma:(Tensor.view2d gamma) ~beta:(Tensor.view2d beta)
          ~out:(Tensor.view2d y)
      in
      let ok = ref true in
      for i = 0 to r - 1 do
        let s = ref 0.0 and sq = ref 0.0 in
        for j = 0 to c - 1 do
          let v = Tensor.get y [| i; j |] in
          s := !s +. v;
          sq := !sq +. (v *. v)
        done;
        let mean = !s /. float_of_int c in
        let var = (!sq /. float_of_int c) -. (mean *. mean) in
        if Float.abs mean > 1e-3 then ok := false;
        if c > 1 && Float.abs (var -. 1.0) > 1e-2 then ok := false
      done;
      !ok)

let test_layernorm_backward_finite_diff () =
  let rng = Prng.create 11 in
  let r, c = (2, 6) in
  let x = random_tensor rng r c in
  let gamma = tensor_of 1 c (fun _ j -> 1.0 +. (0.05 *. float_of_int j)) in
  let beta = tensor_of 1 c (fun _ _ -> 0.0) in
  let dy = random_tensor rng r c in
  let y = Tensor.create Datatype.F32 [| r; c |] in
  let stats =
    Blocks.layernorm_rows ~eps:1e-6 ~inp:(Tensor.view2d x)
      ~gamma:(Tensor.view2d gamma) ~beta:(Tensor.view2d beta)
      ~out:(Tensor.view2d y)
  in
  let dx = Tensor.create Datatype.F32 [| r; c |] in
  let dgamma = Tensor.create Datatype.F32 [| 1; c |] in
  let dbeta = Tensor.create Datatype.F32 [| 1; c |] in
  Blocks.layernorm_rows_backward ~stats ~x:(Tensor.view2d x)
    ~gamma:(Tensor.view2d gamma) ~dy:(Tensor.view2d dy) ~dx:(Tensor.view2d dx)
    ~dgamma:(Tensor.view2d dgamma) ~dbeta:(Tensor.view2d dbeta);
  (* finite differences on a few coordinates *)
  let loss xt =
    let g = Array.init c (fun j -> Tensor.get gamma [| 0; j |]) in
    let b = Array.init c (fun j -> Tensor.get beta [| 0; j |]) in
    let yt = Reference.layernorm_rows ~eps:1e-6 xt g b in
    let s = ref 0.0 in
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        s := !s +. (Tensor.get dy [| i; j |] *. Tensor.get yt [| i; j |])
      done
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
      Alcotest.(check (float 5e-3)) "ln dx" fd (Tensor.get dx [| i; j |]))
    [ (0, 0); (1, 3); (0, 5) ]

let test_dropout_p0_identity () =
  let rng = Prng.create 12 in
  let x = random_tensor rng 3 4 in
  let y = Tensor.create Datatype.F32 [| 3; 4 |] in
  let m = Tensor.create Datatype.F32 [| 3; 4 |] in
  Blocks.dropout ~rng ~p:0.0 ~inp:(Tensor.view2d x) ~mask:(Tensor.view2d m)
    ~out:(Tensor.view2d y);
  checkb "identity" true (Tensor.max_abs_diff x y = 0.0)

let test_dropout_mask_consistency () =
  let rng = Prng.create 13 in
  let x = tensor_of 10 10 (fun _ _ -> 1.0) in
  let y = Tensor.create Datatype.F32 [| 10; 10 |] in
  let m = Tensor.create Datatype.F32 [| 10; 10 |] in
  Blocks.dropout ~rng ~p:0.4 ~inp:(Tensor.view2d x) ~mask:(Tensor.view2d m)
    ~out:(Tensor.view2d y);
  (* output = mask/(1-p) for unit inputs, and mask is 0/1 *)
  for i = 0 to 99 do
    let mv = Tensor.get_flat m i and yv = Tensor.get_flat y i in
    checkb "mask binary" true (mv = 0.0 || mv = 1.0);
    Alcotest.(check (float 1e-6)) "scaled" (mv /. 0.6) yv
  done;
  (* backward uses the same mask *)
  let dy = tensor_of 10 10 (fun _ _ -> 0.6) in
  let dx = Tensor.create Datatype.F32 [| 10; 10 |] in
  Blocks.dropout_backward ~p:0.4 ~dy:(Tensor.view2d dy) ~mask:(Tensor.view2d m)
    ~dx:(Tensor.view2d dx);
  for i = 0 to 99 do
    Alcotest.(check (float 1e-6)) "bwd mask" (Tensor.get_flat m i)
      (Tensor.get_flat dx i)
  done

let test_batchnorm_apply () =
  let x = tensor_of 2 2 (fun i j -> float_of_int ((i * 2) + j)) in
  let y = Tensor.create Datatype.F32 [| 2; 2 |] in
  Blocks.batchnorm_apply ~eps:0.0 ~mean:1.5 ~var:1.25 ~gamma:2.0 ~beta:0.5
    ~inp:(Tensor.view2d x) ~out:(Tensor.view2d y);
  (* (x - 1.5) * 2/sqrt(1.25) + 0.5 *)
  Alcotest.(check (float 1e-5))
    "bn value"
    (((3.0 -. 1.5) *. (2.0 /. sqrt 1.25)) +. 0.5)
    (Tensor.get y [| 1; 1 |])

(* ---- allocation-free hot paths ---- *)

let test_brgemm_hot_loop_allocates_nothing () =
  (* after warmup, the native exec paths must not touch the minor heap:
     bounds checks, the recorder span and the guard are allocation-free
     and the kernel is a [@@noalloc] call *)
  let rng = Prng.create 11 in
  let a = random_tensor rng 16 32 and b = random_tensor rng 32 16 in
  let c = Tensor.create Datatype.F32 [| 16; 16 |] in
  let ker =
    Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:16 ~n:16 ~k:16 ())
  in
  let va = Tensor.view2d a and vb = Tensor.view2d b and vc = Tensor.view2d c in
  let bf = random_tensor ~dtype:Datatype.BF16 rng 16 32 in
  let vnni =
    Brgemm.compile
      (Brgemm.make_config ~dtype:Datatype.BF16 ~b_layout:Brgemm.Vnni ~beta:1.0
         ~m:16 ~n:16 ~k:16 ())
  in
  let vbf = Tensor.view_flat bf ~off:0 ~rows:8 ~cols:32 ~ld:32 in
  let offs_a = [| 16; 0 |] and offs_b = [| 0; 256 |] in
  let exec () =
    Brgemm.exec_stride ker ~a:va ~b:vb ~c:vc ~stride_a:16 ~stride_b:(16 * 16)
      ~count:2;
    Brgemm.exec_offsets vnni ~a:va ~b:vbf ~c:vc ~offs_a ~offs_b
  in
  for _ = 1 to 50 do exec () done;
  let before = Gc.minor_words () in
  for _ = 1 to 200 do exec () done;
  let delta = Gc.minor_words () -. before in
  if delta > 64.0 then
    Alcotest.failf "BRGEMM hot loop allocated %.0f minor words / 200 execs"
      delta

let test_brgemm_list_empty_beta0_zero_fills () =
  let c = tensor_of 3 3 (fun _ _ -> 7.0) in
  let ker0 = Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:3 ~n:3 ~k:4 ()) in
  Brgemm.exec_list ker0 ~ab:[] ~c:(Tensor.view2d c);
  checkb "beta=0 empty batch zeroes C" true
    (List.for_all (( = ) 0.0) (Tensor.to_list c));
  let c1 = tensor_of 3 3 (fun _ _ -> 7.0) in
  let ker1 = Brgemm.compile (Brgemm.make_config ~beta:1.0 ~m:3 ~n:3 ~k:4 ()) in
  Brgemm.exec_list ker1 ~ab:[] ~c:(Tensor.view2d c1);
  checkb "beta=1 empty batch leaves C" true
    (List.for_all (( = ) 7.0) (Tensor.to_list c1))

let test_layernorm_nostats_matches_stats () =
  let rng = Prng.create 12 in
  let x = random_tensor rng 4 16 in
  let gamma = tensor_of 1 16 (fun _ j -> 1.0 +. (0.01 *. float_of_int j)) in
  let beta = tensor_of 1 16 (fun _ j -> 0.02 *. float_of_int j) in
  let y1 = Tensor.create Datatype.F32 [| 4; 16 |] in
  let y2 = Tensor.create Datatype.F32 [| 4; 16 |] in
  let _stats =
    Blocks.layernorm_rows ~eps:1e-5 ~inp:(Tensor.view2d x)
      ~gamma:(Tensor.view2d gamma) ~beta:(Tensor.view2d beta)
      ~out:(Tensor.view2d y1)
  in
  Blocks.layernorm_rows_nostats ~eps:1e-5 ~inp:(Tensor.view2d x)
    ~gamma:(Tensor.view2d gamma) ~beta:(Tensor.view2d beta)
    ~out:(Tensor.view2d y2);
  checkb "nostats == stats" true (Tensor.max_abs_diff y1 y2 = 0.0)

(* Blocks and Tpp_binary read and write through [Tensor.View.get] and
   [set]. Those inline only in a build without -opaque; each call that
   does not boxes a float, 2 words an element. *)
let test_view_loops_unboxed () =
  let words name limit f =
    f ();
    let before = Gc.minor_words () in
    f ();
    let delta = Gc.minor_words () -. before in
    if delta >= limit then
      Alcotest.failf "%s allocated %.0f minor words (limit %.0f)" name delta
        limit
  in
  let rng = Prng.create 13 in
  let x = Tensor.view2d (random_tensor rng 200 32) in
  let gamma = Tensor.view2d (random_tensor rng 1 32) in
  let beta = Tensor.view2d (random_tensor rng 1 32) in
  let y = Tensor.view2d (Tensor.create Datatype.F32 [| 200; 32 |]) in
  (* the per-row statistics reach [record] boxed: 4 words a row *)
  words "200x32 layernorm" 1000.0 (fun () ->
      Blocks.layernorm_rows_nostats ~eps:1e-5 ~inp:x ~gamma ~beta ~out:y);
  let a = Tensor.view2d (random_tensor rng 200 128) in
  let b = Tensor.view2d (random_tensor rng 200 128) in
  let c = Tensor.view2d (Tensor.create Datatype.F32 [| 200; 128 |]) in
  words "200x128 add" 100.0 (fun () ->
      Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Full ~a ~b ~out:c);
  let s = Tensor.view2d (random_tensor rng 64 64) in
  let p = Tensor.view2d (Tensor.create Datatype.F32 [| 64; 64 |]) in
  words "64x64 softmax" 100.0 (fun () ->
      Blocks.softmax_rows ~scale:0.125 ~inp:s ~out:p ())

(* ---- dispatch ---- *)

let test_dispatch_cache () =
  Dispatch.clear ();
  let cfg = Brgemm.make_config ~m:4 ~n:4 ~k:4 () in
  let k1 = Dispatch.brgemm cfg in
  let k2 = Dispatch.brgemm cfg in
  checkb "same kernel" true (k1 == k2);
  let s = Dispatch.stats () in
  checki "one miss" 1 s.Dispatch.misses;
  checki "one hit" 1 s.Dispatch.hits;
  let _ = Dispatch.brgemm (Brgemm.make_config ~m:8 ~n:4 ~k:4 ()) in
  checki "two misses" 2 (Dispatch.stats ()).Dispatch.misses;
  Dispatch.clear ();
  checki "cleared" 0 (Dispatch.stats ()).Dispatch.misses

(* ---- numeric guard (Tpp_check) and the BRGEMM poison fault site ---- *)

let with_check_mode mode f =
  let prev = Tpp_check.mode () in
  Tpp_check.set_mode mode;
  Fun.protect ~finally:(fun () -> Tpp_check.set_mode prev) f

let test_tpp_check_finds_nonfinite () =
  let v = Tensor.create Datatype.F32 [| 3; 4 |] in
  Tensor.set v [| 1; 2 |] Float.nan;
  (match Tpp_check.finite_2d ~mode:Tpp_check.Full ~kernel:"t" (Tensor.view2d v) with
  | exception Tpp_check.Numeric_error { kernel; row; col; _ } ->
    Alcotest.(check string) "kernel named" "t" kernel;
    checki "row located" 1 row;
    checki "col located" 2 col
  | () -> Alcotest.fail "expected Numeric_error");
  Tensor.set v [| 1; 2 |] Float.infinity;
  (match Tpp_check.finite_2d ~mode:Tpp_check.Full ~kernel:"t" (Tensor.view2d v) with
  | exception Tpp_check.Numeric_error _ -> ()
  | () -> Alcotest.fail "expected Numeric_error on inf");
  Tensor.set v [| 1; 2 |] 0.0;
  Tpp_check.finite_2d ~mode:Tpp_check.Full ~kernel:"t" (Tensor.view2d v)

let test_tpp_check_sampled_vs_full () =
  (* sampling with step k probes every k-th flattened element plus index
     0: a NaN off the sample grid escapes Sampled but never Full *)
  let v = Tensor.create Datatype.F32 [| 2; 8 |] in
  Tensor.set v [| 0; 3 |] Float.nan;
  (* index 3: not on the step-5 grid {0,5,10,15} *)
  Tpp_check.finite_2d ~mode:(Tpp_check.Sampled 5) ~kernel:"t" (Tensor.view2d v);
  (match Tpp_check.finite_2d ~mode:Tpp_check.Full ~kernel:"t" (Tensor.view2d v) with
  | exception Tpp_check.Numeric_error _ -> ()
  | () -> Alcotest.fail "Full must catch what Sampled missed");
  (* index 0 is probed by every sampling step *)
  Tensor.set v [| 0; 3 |] 0.0;
  Tensor.set v [| 0; 0 |] Float.nan;
  match
    Tpp_check.finite_2d ~mode:(Tpp_check.Sampled 1000) ~kernel:"t"
      (Tensor.view2d v)
  with
  | exception Tpp_check.Numeric_error { row = 0; col = 0; _ } -> ()
  | _ -> Alcotest.fail "Sampled must always probe index 0"

let test_brgemm_poison_detected_and_arenas_clean () =
  (* end-to-end: the injected NaN store is caught by the guard inside the
     kernel's protected region, and the kernel runs clean again after it
     raised *)
  let ker = Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:4 ~n:4 ~k:4 ()) in
  let mk () = Tensor.view2d (tensor_of 4 4 (fun i j -> float_of_int (i + j))) in
  with_check_mode (Tpp_check.Sampled 7) (fun () ->
      Fault.with_plan
        { Fault.seed = 1;
          rules =
            [ { Fault.rsite = "tpp.brgemm.store"; rkind = Fault.Nan;
                rtrigger = Fault.Nth { first = 2; period = None } } ] }
        (fun () ->
          (* invocation 1: clean *)
          Brgemm.exec ker ~a:(mk ()) ~b:(mk ()) ~c:(mk ());
          (* invocation 2: poisoned; Sampled always probes index 0 *)
          (match Brgemm.exec ker ~a:(mk ()) ~b:(mk ()) ~c:(mk ()) with
          | exception Tpp_check.Numeric_error { row = 0; col = 0; _ } -> ()
          | () -> Alcotest.fail "expected poisoned store to raise");
          (* invocation 3: clean again *)
          Brgemm.exec ker ~a:(mk ()) ~b:(mk ()) ~c:(mk ())))

let test_check_off_by_default () =
  checkb "guard disabled by default" true (Tpp_check.mode () = Tpp_check.Off)

let () =
  Alcotest.run "tpp"
    [
      ( "unary",
        [
          Alcotest.test_case "pointwise ops" `Quick test_unary_pointwise;
          Alcotest.test_case "zero" `Quick test_unary_zero;
          Alcotest.test_case "relu backward" `Quick test_relu_backward;
          Alcotest.test_case "gelu backward" `Quick
            test_gelu_backward_finite_diff;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "broadcasts" `Quick test_broadcasts;
        ] );
      ( "binary",
        [
          Alcotest.test_case "elementwise" `Quick test_binary_full;
          Alcotest.test_case "broadcast modes" `Quick
            test_binary_broadcast_row_col;
          Alcotest.test_case "muladd/axpy" `Quick test_muladd_axpy;
          Alcotest.test_case "inlined loop == closures, bit for bit" `Quick
            test_binary_matches_closures;
        ] );
      ( "brgemm",
        [
          Alcotest.test_case "single" `Quick test_brgemm_single;
          Alcotest.test_case "beta=1" `Quick test_brgemm_beta1_accumulates;
          Alcotest.test_case "stride batch" `Quick test_brgemm_stride_batch;
          Alcotest.test_case "offsets" `Quick test_brgemm_offsets;
          Alcotest.test_case "address list" `Quick test_brgemm_list;
          Alcotest.test_case "vnni" `Quick test_brgemm_vnni;
          qt prop_brgemm_matches_reference;
          Alcotest.test_case "native == reference, bit for bit" `Quick
            test_brgemm_native_matches_reference;
          Alcotest.test_case "bounds checked" `Quick test_brgemm_bounds_checked;
        ] );
      ( "spmm",
        [
          Alcotest.test_case "block row" `Quick test_spmm_tpp_block_row;
          Alcotest.test_case "native == reference offsets" `Quick
            test_spmm_native_matches_reference_offsets;
          Alcotest.test_case "col bounds checked" `Quick
            test_spmm_col_bounds_checked;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "softmax" `Quick test_softmax_matches_reference;
          qt prop_softmax_rows_sum_to_one;
          Alcotest.test_case "softmax backward" `Quick test_softmax_backward;
          Alcotest.test_case "layernorm" `Quick test_layernorm_matches_reference;
          qt prop_layernorm_normalizes;
          Alcotest.test_case "layernorm backward" `Quick
            test_layernorm_backward_finite_diff;
          Alcotest.test_case "dropout p=0" `Quick test_dropout_p0_identity;
          Alcotest.test_case "dropout mask" `Quick test_dropout_mask_consistency;
          Alcotest.test_case "batchnorm" `Quick test_batchnorm_apply;
          Alcotest.test_case "scale+mask+softmax in one pass, bit for bit"
            `Quick test_softmax_scores_one_pass;
          Alcotest.test_case "swiglu in one pass, bit for bit" `Quick
            test_swiglu_one_pass;
        ] );
      ( "arena",
        [
          Alcotest.test_case "brgemm hot loop allocation-free" `Quick
            test_brgemm_hot_loop_allocates_nothing;
          Alcotest.test_case "empty batch beta=0" `Quick
            test_brgemm_list_empty_beta0_zero_fills;
          Alcotest.test_case "layernorm nostats" `Quick
            test_layernorm_nostats_matches_stats;
          Alcotest.test_case "view loops unboxed" `Quick
            test_view_loops_unboxed;
        ] );
      ("dispatch", [ Alcotest.test_case "cache" `Quick test_dispatch_cache ]);
      ( "numeric-guard",
        [
          Alcotest.test_case "finds non-finite" `Quick
            test_tpp_check_finds_nonfinite;
          Alcotest.test_case "sampled vs full" `Quick
            test_tpp_check_sampled_vs_full;
          Alcotest.test_case "brgemm poison end-to-end" `Quick
            test_brgemm_poison_detected_and_arenas_clean;
          Alcotest.test_case "off by default" `Quick test_check_off_by_default;
        ] );
    ]
