let matmul_acc c a b =
  let da = Tensor.dims a and db = Tensor.dims b and dc = Tensor.dims c in
  let m = da.(0) and k = da.(1) and n = db.(1) in
  assert (db.(0) = k && dc.(0) = m && dc.(1) = n);
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref (Tensor.get c [| i; j |]) in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get a [| i; p |] *. Tensor.get b [| p; j |])
      done;
      Tensor.set c [| i; j |] !acc
    done
  done

let matmul a b =
  let m = (Tensor.dims a).(0) and n = (Tensor.dims b).(1) in
  let c = Tensor.create Datatype.F32 [| m; n |] in
  matmul_acc c a b;
  c

let conv2d ~stride ~pad i w =
  let di = Tensor.dims i and dw = Tensor.dims w in
  let n = di.(0) and c = di.(1) and h = di.(2) and wd = di.(3) in
  let k = dw.(0) and r = dw.(2) and s = dw.(3) in
  assert (dw.(1) = c);
  let p = ((h + (2 * pad) - r) / stride) + 1 in
  let q = ((wd + (2 * pad) - s) / stride) + 1 in
  let o = Tensor.create Datatype.F32 [| n; k; p; q |] in
  for in_ = 0 to n - 1 do
    for ik = 0 to k - 1 do
      for ip = 0 to p - 1 do
        for iq = 0 to q - 1 do
          let acc = ref 0.0 in
          for ic = 0 to c - 1 do
            for ir = 0 to r - 1 do
              for is = 0 to s - 1 do
                let ih = (ip * stride) + ir - pad in
                let iw = (iq * stride) + is - pad in
                if ih >= 0 && ih < h && iw >= 0 && iw < wd then
                  acc :=
                    !acc
                    +. Tensor.get i [| in_; ic; ih; iw |]
                       *. Tensor.get w [| ik; ic; ir; is |]
              done
            done
          done;
          Tensor.set o [| in_; ik; ip; iq |] !acc
        done
      done
    done
  done;
  o

let relu x = if x > 0.0 then x else 0.0

let gelu x = 0.5 *. x *. (1.0 +. Float.erf (x /. Float.sqrt 2.0))

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

let softmax_rows x =
  let d = Tensor.dims x in
  let rows = d.(0) and cols = d.(1) in
  let y = Tensor.create Datatype.F32 d in
  for i = 0 to rows - 1 do
    let mx = ref neg_infinity in
    for j = 0 to cols - 1 do
      mx := Float.max !mx (Tensor.get x [| i; j |])
    done;
    let sum = ref 0.0 in
    for j = 0 to cols - 1 do
      let e = exp (Tensor.get x [| i; j |] -. !mx) in
      Tensor.set y [| i; j |] e;
      sum := !sum +. e
    done;
    for j = 0 to cols - 1 do
      Tensor.set y [| i; j |] (Tensor.get y [| i; j |] /. !sum)
    done
  done;
  y

let layernorm_rows ~eps x gamma beta =
  let d = Tensor.dims x in
  let rows = d.(0) and cols = d.(1) in
  assert (Array.length gamma = cols && Array.length beta = cols);
  let y = Tensor.create Datatype.F32 d in
  for i = 0 to rows - 1 do
    let mean = ref 0.0 in
    for j = 0 to cols - 1 do
      mean := !mean +. Tensor.get x [| i; j |]
    done;
    let mean = !mean /. float_of_int cols in
    let var = ref 0.0 in
    for j = 0 to cols - 1 do
      let dx = Tensor.get x [| i; j |] -. mean in
      var := !var +. (dx *. dx)
    done;
    let var = !var /. float_of_int cols in
    let inv = 1.0 /. sqrt (var +. eps) in
    for j = 0 to cols - 1 do
      let v = (Tensor.get x [| i; j |] -. mean) *. inv in
      Tensor.set y [| i; j |] ((v *. gamma.(j)) +. beta.(j))
    done
  done;
  y

let global_avgpool x =
  let d = Tensor.dims x in
  let n = d.(0) and c = d.(1) and h = d.(2) and w = d.(3) in
  let y = Tensor.create Datatype.F32 [| n; c |] in
  let area = float_of_int (h * w) in
  for in_ = 0 to n - 1 do
    for ic = 0 to c - 1 do
      let s = ref 0.0 in
      for ih = 0 to h - 1 do
        for iw = 0 to w - 1 do
          s := !s +. Tensor.get x [| in_; ic; ih; iw |]
        done
      done;
      Tensor.set y [| in_; ic |] (!s /. area)
    done
  done;
  y
