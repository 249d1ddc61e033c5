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

  let get v i j = Bigarray.Array1.unsafe_get v.data (v.off + (i * v.ld) + j)

  let set v i j x =
    Bigarray.Array1.unsafe_set v.data
      (v.off + (i * v.ld) + j)
      (Datatype.quantize v.dtype x)

  let sub v ~row ~col ~rows ~cols =
    assert (row + rows <= v.rows && col + cols <= v.cols);
    { v with off = v.off + (row * v.ld) + col; rows; cols }
end

let create dtype dims =
  assert (Array.length dims > 0);
  Array.iter (fun d -> assert (d > 0)) dims;
  let data =
    Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout
      (numel_of_dims dims)
  in
  Bigarray.Array1.fill data 0.0;
  { data; dims = Array.copy dims; strides = compute_strides dims; dtype }

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

let fill t x =
  let q = Datatype.quantize t.dtype x in
  Bigarray.Array1.fill t.data q

let fill_random t rng ~scale =
  for i = 0 to numel t - 1 do
    set_flat t i (Prng.uniform rng ~scale)
  done

let copy t =
  let c = create t.dtype t.dims in
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
    let c = create dtype t.dims in
    for i = 0 to numel t - 1 do
      set_flat c i (get_flat t i)
    done;
    c
  end

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
