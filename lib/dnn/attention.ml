type t = {
  hidden : int;
  heads : int;
  head_dim : int;
  wq : Fc.t;
  wk : Fc.t;
  wv : Fc.t;
  wo : Fc.t;
}

let create ~rng ?(dtype = Datatype.F32) ?(block = 32) ?(spec = Gemm.default_spec)
    ~hidden ~heads () =
  if hidden mod heads <> 0 then
    invalid_arg "Attention.create: hidden must be divisible by heads";
  let mk () =
    Fc.create ~rng ~dtype ~block ~spec ~in_features:hidden
      ~out_features:hidden ()
  in
  { hidden; heads; head_dim = hidden / heads; wq = mk (); wk = mk ();
    wv = mk (); wo = mk () }

let project ?nthreads t x =
  ( Fc.forward ?nthreads t.wq x,
    Fc.forward ?nthreads t.wk x,
    Fc.forward ?nthreads t.wv x )

(* head h occupies columns [h*d, (h+1)*d) of a [tokens x hidden] tensor *)
let head_view x ~heads ~h =
  let dims = Tensor.dims x in
  let n = dims.(0) and hidden = dims.(1) in
  let d = hidden / heads in
  Tensor.view_flat x ~off:(h * d) ~rows:n ~cols:d ~ld:hidden

let attend_range ?(causal = false) ~heads ~h0 ~h1 ~out q k v =
  let dq = Tensor.dims q and dk = Tensor.dims k in
  let nq = dq.(0) and nk = dk.(0) and hidden = dq.(1) in
  assert (dk.(1) = hidden && (Tensor.dims v).(1) = hidden);
  assert (0 <= h0 && h0 <= h1 && h1 <= heads);
  let od = Tensor.dims out in
  assert (od.(0) = nq && od.(1) = hidden);
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
  for h = h0 to h1 - 1 do
    let qh = head_view q ~heads ~h in
    let kh = head_view k ~heads ~h in
    let vh = head_view v ~heads ~h in
    (* S = Q_h x K_h^T; scale, causal mask and softmax in one pass a row *)
    Tpp_unary.transpose ~inp:kh ~out:(Tensor.view2d kt);
    Brgemm.exec score_ker ~a:qh ~b:(Tensor.view2d kt) ~c:(Tensor.view2d scores);
    Blocks.softmax_rows ~scale
      ?causal:(if causal then Some (nk - nq) else None)
      ~inp:(Tensor.view2d scores) ~out:(Tensor.view2d scores) ();
    (* C_h = S x V_h *)
    let oh = head_view out ~heads ~h in
    Brgemm.exec ctx_ker ~a:(Tensor.view2d scores) ~b:vh ~c:oh
  done

let attend ?causal ~heads q k v =
  let dq = Tensor.dims q in
  let out = Tensor.create Datatype.F32 [| dq.(0); dq.(1) |] in
  attend_range ?causal ~heads ~h0:0 ~h1:heads ~out q k v;
  out

let forward ?nthreads ?causal t x =
  let q, k, v = project ?nthreads t x in
  let ctx = attend ?causal ~heads:t.heads q k v in
  Fc.forward ?nthreads t.wo ctx

let reference_forward ?(causal = false) t x =
  let n = (Tensor.dims x).(0) in
  let proj (fc : Fc.t) =
    let w = fc.Fc.weights in
    let wt =
      Tensor.init Datatype.F32 [| fc.Fc.in_features; fc.Fc.out_features |]
        (fun i -> Tensor.get w [| i.(1); i.(0) |])
    in
    let y = Reference.matmul x wt in
    Tensor.init Datatype.F32 [| n; fc.Fc.out_features |] (fun i ->
        Tensor.get y i +. Tensor.get fc.Fc.bias [| i.(1) |])
  in
  let q = proj t.wq and k = proj t.wk and v = proj t.wv in
  let d = t.head_dim in
  let out = Tensor.create Datatype.F32 [| n; t.hidden |] in
  for h = 0 to t.heads - 1 do
    let s = Tensor.create Datatype.F32 [| n; n |] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0.0 in
        for x' = 0 to d - 1 do
          acc :=
            !acc
            +. Tensor.get q [| i; (h * d) + x' |]
               *. Tensor.get k [| j; (h * d) + x' |]
        done;
        let v' = !acc /. sqrt (float_of_int d) in
        Tensor.set s [| i; j |] (if causal && j > i then -1e30 else v')
      done
    done;
    let p = Reference.softmax_rows s in
    for i = 0 to n - 1 do
      for x' = 0 to d - 1 do
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          acc := !acc +. (Tensor.get p [| i; j |] *. Tensor.get v [| j; (h * d) + x' |])
        done;
        Tensor.set out [| i; (h * d) + x' |] !acc
      done
    done
  done;
  let proj_o =
    let wt =
      Tensor.init Datatype.F32 [| t.hidden; t.hidden |] (fun i ->
          Tensor.get t.wo.Fc.weights [| i.(1); i.(0) |])
    in
    let y = Reference.matmul out wt in
    Tensor.init Datatype.F32 [| n; t.hidden |] (fun i ->
        Tensor.get y i +. Tensor.get t.wo.Fc.bias [| i.(1) |])
  in
  proj_o
