type buffer =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  data : buffer;
  dims : int array;
  strides : int array;
  dtype : Datatype.t;
}

let compute_strides dims =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  strides

let numel_of_dims dims = Array.fold_left ( * ) 1 dims

module View = struct
  type view = {
    data : buffer;
    off : int;
    rows : int;
    cols : int;
    ld : int;
    dtype : Datatype.t;
  }

  type t = view

  let[@inline] get v i j =
    Bigarray.Array1.unsafe_get v.data (v.off + (i * v.ld) + j)

  let[@inline] set v i j x =
    Bigarray.Array1.unsafe_set v.data
      (v.off + (i * v.ld) + j)
      (Datatype.quantize v.dtype x)

  let sub v ~row ~col ~rows ~cols =
    assert (row + rows <= v.rows && col + cols <= v.cols);
    { v with off = v.off + (row * v.ld) + col; rows; cols }
end

(* a tensor whose every element the caller is about to store *)
let uninit dtype dims =
  assert (Array.length dims > 0);
  Array.iter (fun d -> assert (d > 0)) dims;
  let data =
    Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout
      (numel_of_dims dims)
  in
  { data; dims = Array.copy dims; strides = compute_strides dims; dtype }

let create dtype dims =
  let t = uninit dtype dims in
  Bigarray.Array1.fill t.data 0.0;
  t

let numel t = numel_of_dims t.dims
let rank t = Array.length t.dims
let dims t = Array.copy t.dims
let dtype t = t.dtype

let get_flat t i = Bigarray.Array1.get t.data i

let set_flat t i x =
  Bigarray.Array1.set t.data i (Datatype.quantize t.dtype x)

let offset t idx =
  assert (Array.length idx = Array.length t.dims);
  let off = ref 0 in
  for d = 0 to Array.length idx - 1 do
    assert (idx.(d) >= 0 && idx.(d) < t.dims.(d));
    off := !off + (idx.(d) * t.strides.(d))
  done;
  !off

let get t idx = get_flat t (offset t idx)
let set t idx x = set_flat t (offset t idx) x

let iter_indices dims f =
  let n = Array.length dims in
  let idx = Array.make n 0 in
  let total = numel_of_dims dims in
  for _ = 1 to total do
    f idx;
    (* increment multi-index *)
    let d = ref (n - 1) in
    let carry = ref true in
    while !carry && !d >= 0 do
      idx.(!d) <- idx.(!d) + 1;
      if idx.(!d) = dims.(!d) then begin
        idx.(!d) <- 0;
        decr d
      end
      else carry := false
    done
  done

let init dtype dims f =
  let t = create dtype dims in
  let i = ref 0 in
  iter_indices dims (fun idx ->
      set_flat t !i (f idx);
      incr i);
  t

(* ---- the strided copy (contract in the .mli) ----

   The loops are written against [buffer] and inline the BF16 rounding:
   a call to [Bf16.round] per element would box the value it takes and
   the one it returns, and a Bigarray parameter whose type is not
   annotated boxes every value read through it. *)

(* [Bf16.round] of a value read from an FP32 buffer, in two parts.

   [bf16_fast x] holds for zeros and for normal FP32 values below the
   overflow threshold. On them, Veltkamp's split at 2^45 + 1 rounds the
   24 significant bits to BF16's 8 with ties to even, in three float
   operations, and keeps a zero's sign; checked against the bit rounding
   on all 2^32 patterns.

   [bf16_slow] stores the rest from their bits: [Int32.bits_of_float]
   rounds to FP32 first, then the low 16 bits round to nearest even. A
   NaN is stored as it is. It takes indices, not a float, so calling it
   boxes nothing, and its C calls stay out of the fast loop. *)
let[@inline] bf16_fast x =
  let a = Float.abs x in
  (a >= 0x1p-126 || a = 0.0) && a < 0x1.FFp127

let[@inline] veltkamp x =
  let g = x *. 35184372088833.0 in
  g -. (g -. x)

let bf16_slow (src : buffer) i (dst : buffer) k =
  let x = Bigarray.Array1.unsafe_get src i in
  Bigarray.Array1.unsafe_set dst k
    (if x <> x then x
     else begin
       let b = Int32.to_int (Int32.bits_of_float x) land 0xFFFF_FFFF in
       Int32.float_of_bits
         (Int32.of_int ((b + 0x7FFF + ((b lsr 16) land 1)) land 0xFFFF_0000))
     end)

(* One row of [n] elements. A value goes through a float, as [set_flat]
   stores it, so a signalling NaN is stored quiet. Four elements are read
   before any is stored: each conversion into a float register waits on
   that register's last writer, and four registers make four chains
   instead of one. The stores land where the old loops put them; only a
   source and destination that overlap other than element for element
   would see the difference. The helpers are [@inline]: a call would box
   the float it passes. *)
let[@inline] buf_get (src : buffer) s ss j =
  Bigarray.Array1.unsafe_get src (s + (j * ss))

let[@inline] buf_set (dst : buffer) d ds j x =
  Bigarray.Array1.unsafe_set dst (d + (j * ds)) x

let copy_row_f32 n (src : buffer) s ss (dst : buffer) d ds =
  let j = ref 0 in
  while !j + 3 < n do
    let k = !j in
    let x0 = buf_get src s ss k and x1 = buf_get src s ss (k + 1)
    and x2 = buf_get src s ss (k + 2) and x3 = buf_get src s ss (k + 3) in
    buf_set dst d ds k x0;
    buf_set dst d ds (k + 1) x1;
    buf_set dst d ds (k + 2) x2;
    buf_set dst d ds (k + 3) x3;
    j := k + 4
  done;
  for k = !j to n - 1 do
    buf_set dst d ds k (buf_get src s ss k)
  done

let[@inline] bf16_one (src : buffer) s ss (dst : buffer) d ds k =
  let x = buf_get src s ss k in
  if bf16_fast x then buf_set dst d ds k (veltkamp x)
  else bf16_slow src (s + (k * ss)) dst (d + (k * ds))

let copy_row_bf16 n (src : buffer) s ss (dst : buffer) d ds =
  let j = ref 0 in
  while !j + 3 < n do
    let k = !j in
    let x0 = buf_get src s ss k and x1 = buf_get src s ss (k + 1)
    and x2 = buf_get src s ss (k + 2) and x3 = buf_get src s ss (k + 3) in
    if bf16_fast x0 && bf16_fast x1 && bf16_fast x2 && bf16_fast x3 then begin
      buf_set dst d ds k (veltkamp x0);
      buf_set dst d ds (k + 1) (veltkamp x1);
      buf_set dst d ds (k + 2) (veltkamp x2);
      buf_set dst d ds (k + 3) (veltkamp x3)
    end
    else
      for i = k to k + 3 do
        bf16_one src s ss dst d ds i
      done;
    j := k + 4
  done;
  for k = !j to n - 1 do
    bf16_one src s ss dst d ds k
  done

(* the lowest and highest element the strides reach must lie in [buf] *)
let check_extent what dims (buf : buffer) off strides =
  let lo = ref off and hi = ref off in
  for d = 0 to Array.length dims - 1 do
    let span = (dims.(d) - 1) * strides.(d) in
    if span < 0 then lo := !lo + span else hi := !hi + span
  done;
  let len = Bigarray.Array1.dim buf in
  if !lo < 0 || !hi >= len then
    invalid_arg
      (Printf.sprintf
         "Tensor.strided_copy: %s reaches elements %d..%d of a %d-element \
          buffer"
         what !lo !hi len)

(* [dims] without its 1s, each dimension merged into the one inside it
   when both sides step across the pair as one run: the same elements in
   the same order, in as few and as long rows as can be. A copy of one
   element is one row of one. *)
let merge_dims dims src_strides dst_strides =
  let r = Array.length dims in
  let n = Array.make r 1 and ss = Array.make r 0 and ds = Array.make r 0 in
  let k = ref 0 in
  for d = 0 to r - 1 do
    let top = !k - 1 in
    if dims.(d) = 1 then ()
    else if
      top >= 0
      && ss.(top) = dims.(d) * src_strides.(d)
      && ds.(top) = dims.(d) * dst_strides.(d)
    then begin
      n.(top) <- n.(top) * dims.(d);
      ss.(top) <- src_strides.(d);
      ds.(top) <- dst_strides.(d)
    end
    else begin
      n.(!k) <- dims.(d);
      ss.(!k) <- src_strides.(d);
      ds.(!k) <- dst_strides.(d);
      incr k
    end
  done;
  let k = max 1 !k in
  (Array.sub n 0 k, Array.sub ss 0 k, Array.sub ds 0 k)

let strided_copy dtype dims ~src ~src_off ~src_strides ~dst ~dst_off
    ~dst_strides =
  let r = Array.length dims in
  if r = 0 || Array.length src_strides <> r || Array.length dst_strides <> r
  then invalid_arg "Tensor.strided_copy: dims and strides differ in rank";
  if Array.exists (fun n -> n < 0) dims then
    invalid_arg "Tensor.strided_copy: negative dimension";
  if not (Array.mem 0 dims) then begin
    check_extent "source" dims src src_off src_strides;
    check_extent "destination" dims dst dst_off dst_strides;
    let dims, src_strides, dst_strides =
      merge_dims dims src_strides dst_strides
    in
    let last = Array.length dims - 1 in
    let n = dims.(last) and ss = src_strides.(last)
    and ds = dst_strides.(last) in
    (* an odometer over the outer dimensions, in row-major order *)
    let idx = Array.make (last + 1) 0 in
    let s = ref src_off and d = ref dst_off in
    for _ = 1 to numel_of_dims dims / n do
      (match dtype with
      | Datatype.F32 -> copy_row_f32 n src !s ss dst !d ds
      | Datatype.BF16 -> copy_row_bf16 n src !s ss dst !d ds);
      let k = ref (last - 1) in
      while !k >= 0 do
        let i = !k in
        idx.(i) <- idx.(i) + 1;
        s := !s + src_strides.(i);
        d := !d + dst_strides.(i);
        if idx.(i) < dims.(i) then k := -1
        else begin
          s := !s - (dims.(i) * src_strides.(i));
          d := !d - (dims.(i) * dst_strides.(i));
          idx.(i) <- 0;
          k := i - 1
        end
      done
    done
  end

let gather dtype dims t ~off ~strides =
  let c = uninit dtype dims in
  strided_copy dtype dims ~src:t.data ~src_off:off ~src_strides:strides
    ~dst:c.data ~dst_off:0 ~dst_strides:c.strides;
  c

(* every element of [src] into [dst], in order, rounded to [dtype] *)
let copy_all dtype (src : buffer) (dst : buffer) =
  strided_copy dtype [| Bigarray.Array1.dim src |] ~src ~src_off:0
    ~src_strides:[| 1 |] ~dst ~dst_off:0 ~dst_strides:[| 1 |]

let fill_random t rng ~scale =
  Prng.fill_uniform rng ~scale t.data;
  (* the FP32 draws rounded to BF16 are what [Bf16.round] makes of the
     float draws, as it rounds to FP32 first *)
  if Datatype.equal t.dtype Datatype.BF16 then copy_all t.dtype t.data t.data

let random dtype dims rng ~scale =
  let t = uninit dtype dims in
  fill_random t rng ~scale;
  t

let fill t x =
  let q = Datatype.quantize t.dtype x in
  Bigarray.Array1.fill t.data q

let copy t =
  let c = uninit t.dtype t.dims in
  Bigarray.Array1.blit t.data c.data;
  c

let reshape t new_dims =
  assert (numel_of_dims new_dims = numel t);
  {
    data = t.data;
    dims = Array.copy new_dims;
    strides = compute_strides new_dims;
    dtype = t.dtype;
  }

let sub_rows t n =
  assert (rank t >= 1);
  assert (n > 0 && n <= t.dims.(0));
  let dims = Array.copy t.dims in
  dims.(0) <- n;
  let row_elems = numel_of_dims dims / n in
  {
    data = Bigarray.Array1.sub t.data 0 (n * row_elems);
    dims;
    strides = compute_strides dims;
    dtype = t.dtype;
  }

let row_views t =
  assert (rank t = 2);
  let rows = t.dims.(0) and cols = t.dims.(1) in
  let dims = [| 1; cols |] and strides = [| cols; 1 |] in
  fun r ->
    assert (0 <= r && r < rows);
    { data = Bigarray.Array1.sub t.data (r * cols) cols; dims; strides;
      dtype = t.dtype }

let cast t dtype =
  if Datatype.equal dtype t.dtype then copy t
  else begin
    let c = uninit dtype t.dims in
    copy_all dtype t.data c.data;
    c
  end

let transpose t =
  assert (rank t = 2);
  gather t.dtype [| t.dims.(1); t.dims.(0) |] t ~off:0
    ~strides:[| 1; t.dims.(1) |]

let max_abs_diff a b =
  assert (a.dims = b.dims);
  let m = ref 0.0 in
  for i = 0 to numel a - 1 do
    let d = Float.abs (get_flat a i -. get_flat b i) in
    if d > !m then m := d
  done;
  !m

let approx_equal ?(tol = 1e-5) a b =
  let ref_mag = ref 0.0 in
  for i = 0 to numel b - 1 do
    let v = Float.abs (get_flat b i) in
    if v > !ref_mag then ref_mag := v
  done;
  max_abs_diff a b <= tol *. (1.0 +. !ref_mag)

let to_list t = List.init (numel t) (get_flat t)

let view t idx ~rows ~cols =
  let r = rank t in
  assert (r >= 2 && Array.length idx = r);
  let off = ref 0 in
  for d = 0 to r - 1 do
    off := !off + (idx.(d) * t.strides.(d))
  done;
  assert (idx.(r - 2) + rows <= t.dims.(r - 2));
  assert (idx.(r - 1) + cols <= t.dims.(r - 1));
  {
    View.data = t.data;
    off = !off;
    rows;
    cols;
    ld = t.strides.(r - 2);
    dtype = t.dtype;
  }

let view2d t =
  assert (rank t = 2);
  view t [| 0; 0 |] ~rows:t.dims.(0) ~cols:t.dims.(1)

let view_flat t ~off ~rows ~cols ~ld =
  assert (off >= 0 && off + ((rows - 1) * ld) + cols <= numel t);
  { View.data = t.data; off; rows; cols; ld; dtype = t.dtype }
