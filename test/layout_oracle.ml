(* Bit-exactness references for the layout transforms: the Tensor.init
   formulas each pack, unpack, cast and transpose had before it became one
   strided copy, and inputs that hold every value class the rounding and
   the NaN rule must get right. Shared by the tensor and kernel suites. *)

type bits = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The buffer's raw 32-bit patterns. Reading through a float would quiet a
   signalling NaN; storing through one cannot make one. This view is the
   only way to plant one, and to see that a transform quieted it. *)
let raw (t : Tensor.t) : bits = Obj.magic t.Tensor.data

let specials =
  [|
    0x00000000l (* +0 *); 0x80000000l (* -0 *); 0x7F800000l (* +inf *);
    0xFF800000l (* -inf *); 0x7FC00001l (* quiet NaN, payload *);
    0xFFC12345l (* negative quiet NaN, payload *);
    0x7FA00001l (* signalling NaN *); 0xFF800005l (* negative signalling *);
    0x00000001l (* least subnormal *); 0x807FFFFFl (* largest subnormal *);
    0x00008000l (* subnormal BF16 tie, rounds down *);
    0x00018000l (* subnormal BF16 tie, rounds up *);
    0x007F8000l (* subnormal tie that rounds up to the least normal *);
    0x3F808000l (* BF16 tie to even, down *); 0x3F818000l (* tie, up *);
    0xBF818000l (* negative tie, up *); 0x3F80C000l (* above a tie *);
    0x7F7FFFFFl (* FP32 max: rounds to inf *);
    0x7F7F8000l (* tie that rounds up to inf *); 0xFF7FFFFFl (* to -inf *);
    0x7F7F7FFFl (* just below the inf threshold *); 0x00800000l (* least normal *);
  |]

(* [dims] of uniform values in [-3, 3) whose first elements are every
   special in turn and about a quarter of the rest random specials; in
   [dtype], though the planted bits need not be on its grid *)
let special_tensor rng dtype dims =
  let t = Tensor.create dtype dims in
  Tensor.fill_random t rng ~scale:3.0;
  let r = raw t in
  let ns = Array.length specials in
  for i = 0 to Bigarray.Array1.dim r - 1 do
    if i < ns then r.{i} <- specials.(i)
    else if Prng.int rng 4 = 0 then r.{i} <- specials.(Prng.int rng ns)
  done;
  t

(* [""] when [got] and [want] hold the same dims and bits, else the first
   difference *)
let diff (got : Tensor.t) (want : Tensor.t) =
  if Tensor.dims got <> Tensor.dims want then "dims differ"
  else if not (Datatype.equal (Tensor.dtype got) (Tensor.dtype want)) then
    "dtypes differ"
  else begin
    let g = raw got and w = raw want in
    let first = ref "" in
    for i = Bigarray.Array1.dim w - 1 downto 0 do
      if g.{i} <> w.{i} then
        first := Printf.sprintf "element %d: %08lx, want %08lx" i g.{i} w.{i}
    done;
    !first
  end

let check_bits msg got want =
  Alcotest.(check string) msg "" (diff got want)

(* ---- the old formulas ---- *)

let cast t dtype =
  if Datatype.equal dtype (Tensor.dtype t) then Tensor.copy t
  else Tensor.init dtype (Tensor.dims t) (fun i -> Tensor.get t i)

let transpose t0 =
  let d = Tensor.dims t0 in
  Tensor.init (Tensor.dtype t0) [| d.(1); d.(0) |] (fun i ->
      Tensor.get t0 [| i.(1); i.(0) |])

let vnni_pack b =
  let dims = Tensor.dims b in
  let k = dims.(0) and n = dims.(1) in
  let v = Datatype.vnni_factor (Tensor.dtype b) in
  Tensor.init (Tensor.dtype b) [| k / v; n; v |] (fun idx ->
      Tensor.get b [| (idx.(0) * v) + idx.(2); idx.(1) |])

let vnni_unpack p =
  let dims = Tensor.dims p in
  let kv = dims.(0) and n = dims.(1) and v = dims.(2) in
  Tensor.init (Tensor.dtype p) [| kv * v; n |] (fun idx ->
      Tensor.get p [| idx.(0) / v; idx.(1); idx.(0) mod v |])

(* payloads of the stored blocks of [a], slots in [Bcsc]'s column order *)
let bcsc_values (s : Bcsc.t) a =
  let v = Tensor.create s.Bcsc.dtype (Tensor.dims s.Bcsc.values) in
  let kblocks = s.Bcsc.cols / s.Bcsc.bk in
  for jb = 0 to kblocks - 1 do
    for slot = s.Bcsc.colptr.(jb) to s.Bcsc.colptr.(jb + 1) - 1 do
      let ib = s.Bcsc.rowind.(slot) in
      for i = 0 to s.Bcsc.bm - 1 do
        for j = 0 to s.Bcsc.bk - 1 do
          Tensor.set v [| slot; i; j |]
            (Tensor.get a [| (ib * s.Bcsc.bm) + i; (jb * s.Bcsc.bk) + j |])
        done
      done
    done
  done;
  v

let bcsc_to_dense (s : Bcsc.t) =
  let d = Tensor.create s.Bcsc.dtype [| s.Bcsc.rows; s.Bcsc.cols |] in
  let kblocks = s.Bcsc.cols / s.Bcsc.bk in
  for jb = 0 to kblocks - 1 do
    for slot = s.Bcsc.colptr.(jb) to s.Bcsc.colptr.(jb + 1) - 1 do
      let ib = s.Bcsc.rowind.(slot) in
      for i = 0 to s.Bcsc.bm - 1 do
        for j = 0 to s.Bcsc.bk - 1 do
          Tensor.set d
            [| (ib * s.Bcsc.bm) + i; (jb * s.Bcsc.bk) + j |]
            (Tensor.get s.Bcsc.values [| slot; i; j |])
        done
      done
    done
  done;
  d

let pack_a (c : Gemm.config) a =
  match c.Gemm.layout with
  | Gemm.Rows -> cast a c.Gemm.dtype
  | Gemm.Blocked ->
    Tensor.init c.Gemm.dtype
      [| Gemm.mb c; Gemm.kb c; c.Gemm.bm; c.Gemm.bk |]
      (fun i ->
        Tensor.get a
          [| (i.(0) * c.Gemm.bm) + i.(2); (i.(1) * c.Gemm.bk) + i.(3) |])

let pack_b (c : Gemm.config) b =
  if c.Gemm.vnni_b then begin
    let v = Datatype.vnni_factor c.Gemm.dtype in
    Tensor.init c.Gemm.dtype
      [| Gemm.nb c; Gemm.kb c; c.Gemm.bk / v; c.Gemm.bn; v |]
      (fun i ->
        Tensor.get b
          [|
            (i.(1) * c.Gemm.bk) + (i.(2) * v) + i.(4);
            (i.(0) * c.Gemm.bn) + i.(3);
          |])
  end
  else
    Tensor.init c.Gemm.dtype
      [| Gemm.nb c; Gemm.kb c; c.Gemm.bk; c.Gemm.bn |]
      (fun i ->
        Tensor.get b
          [| (i.(1) * c.Gemm.bk) + i.(2); (i.(0) * c.Gemm.bn) + i.(3) |])

let pack_c (c : Gemm.config) t =
  match c.Gemm.layout with
  | Gemm.Rows -> cast t Datatype.F32
  | Gemm.Blocked ->
    Tensor.init Datatype.F32
      [| Gemm.nb c; Gemm.mb c; c.Gemm.bm; c.Gemm.bn |]
      (fun i ->
        Tensor.get t
          [| (i.(1) * c.Gemm.bm) + i.(2); (i.(0) * c.Gemm.bn) + i.(3) |])

let unpack_c (c : Gemm.config) t =
  match c.Gemm.layout with
  | Gemm.Rows -> t
  | Gemm.Blocked ->
    Tensor.init Datatype.F32 [| c.Gemm.m; c.Gemm.n |] (fun i ->
        Tensor.get t
          [|
            i.(1) / c.Gemm.bn;
            i.(0) / c.Gemm.bm;
            i.(0) mod c.Gemm.bm;
            i.(1) mod c.Gemm.bn;
          |])

let conv_pack_input (cfg : Conv.config) inp =
  let hp = cfg.Conv.h + (2 * cfg.Conv.pad)
  and wp = cfg.Conv.w + (2 * cfg.Conv.pad) in
  Tensor.init cfg.Conv.dtype
    [| cfg.Conv.n; cfg.Conv.c / cfg.Conv.bc; hp; wp; cfg.Conv.bc |]
    (fun i ->
      let ih = i.(2) - cfg.Conv.pad and iw = i.(3) - cfg.Conv.pad in
      if ih < 0 || ih >= cfg.Conv.h || iw < 0 || iw >= cfg.Conv.w then 0.0
      else Tensor.get inp [| i.(0); (i.(1) * cfg.Conv.bc) + i.(4); ih; iw |])

let conv_pack_weights (cfg : Conv.config) w =
  Tensor.init cfg.Conv.dtype
    [|
      cfg.Conv.k / cfg.Conv.bk; cfg.Conv.c / cfg.Conv.bc; cfg.Conv.r;
      cfg.Conv.s; cfg.Conv.bc; cfg.Conv.bk;
    |]
    (fun i ->
      Tensor.get w
        [|
          (i.(0) * cfg.Conv.bk) + i.(5);
          (i.(1) * cfg.Conv.bc) + i.(4);
          i.(2);
          i.(3);
        |])

let conv_unpack_output (cfg : Conv.config) o =
  let p, q = Conv.out_dims cfg in
  let bk = cfg.Conv.bk in
  Tensor.init Datatype.F32 [| cfg.Conv.n; cfg.Conv.k; p; q |] (fun i ->
      Tensor.get o [| i.(0); i.(1) / bk; i.(2); i.(3); i.(1) mod bk |])

let spmm_pack_b (cfg : Spmm_kernel.config) b =
  vnni_pack (cast b cfg.Spmm_kernel.dtype)

let fc_slice_weights (t : Fc.t) ~r0 ~r1 =
  Tensor.init t.Fc.dtype [| r1 - r0; t.Fc.in_features |] (fun i ->
      Tensor.get t.Fc.weights [| r0 + i.(0); i.(1) |])

let fc_slice_bias (t : Fc.t) ~r0 ~r1 =
  Tensor.init (Tensor.dtype t.Fc.bias) [| r1 - r0 |] (fun i ->
      Tensor.get t.Fc.bias [| r0 + i.(0) |])

let last_row x =
  let d = Tensor.dims x in
  Tensor.init Datatype.F32 [| 1; d.(1) |] (fun i ->
      Tensor.get x [| d.(0) - 1; i.(1) |])
