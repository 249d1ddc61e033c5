let pack ?dtype b =
  assert (Tensor.rank b = 2);
  let dims = Tensor.dims b in
  let k = dims.(0) and n = dims.(1) in
  let dtype = Option.value dtype ~default:(Tensor.dtype b) in
  let v = Datatype.vnni_factor dtype in
  assert (k mod v = 0);
  let p = Tensor.create dtype [| k / v; n; v |] in
  (* B's rows in order: row [k0 * v + r] lands at [p.(k0).(_).(r)] *)
  Tensor.strided_copy dtype [| k / v; v; n |] ~src:b.Tensor.data ~src_off:0
    ~src_strides:[| v * n; n; 1 |] ~dst:p.Tensor.data ~dst_off:0
    ~dst_strides:[| n * v; 1; v |];
  p

let unpack p =
  assert (Tensor.rank p = 3);
  let dims = Tensor.dims p in
  let kv = dims.(0) and n = dims.(1) and v = dims.(2) in
  Tensor.reshape
    (Tensor.gather (Tensor.dtype p) [| kv; v; n |] p ~off:0
       ~strides:[| n * v; 1; v |])
    [| kv * v; n |]

let get p ~v ~k ~n = Tensor.get p [| k / v; n; k mod v |]
