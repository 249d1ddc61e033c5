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
  let n = Tensor.dim x 0 and hidden = Tensor.dim x 1 in
  let d = hidden / heads in
  Tensor.view_flat x ~off:(h * d) ~rows:n ~cols:d ~ld:hidden

(* ---- attention over row blocks of live keys ---- *)

(* query rows of one work item *)
let row_block = 32

(* a call with fewer scores than this (about 25 us of softmax and
   products on this size of model) runs inline: a parallel region would
   cost a good part of what it saves *)
let inline_scores = 4096

(* uninitialised: every element a call reads, it stored first *)
let buffer n = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n

let window (data : Tensor.buffer) ~off ~rows ~cols ~ld =
  { Tensor.View.data; off; rows; cols; ld; dtype = Datatype.F32 }

let attend_range ?nthreads ?(causal = false) ~heads ~h0 ~h1 ~out q k v =
  let nq = Tensor.dim q 0 and nk = Tensor.dim k 0 in
  let hidden = Tensor.dim q 1 in
  assert (Tensor.dim k 1 = hidden && Tensor.dim v 1 = hidden);
  assert (0 <= h0 && h0 <= h1 && h1 <= heads);
  assert (Tensor.dim out 0 = nq && Tensor.dim out 1 = hidden);
  let d = hidden / heads and nh = h1 - h0 in
  let scale = 1.0 /. sqrt (float_of_int d) in
  let nb = (nq + row_block - 1) / row_block in
  (* scores over w keys, context over the first n *)
  let kernels ~rows ~w ~n =
    ( Dispatch.brgemm (Brgemm.make_config ~beta:0.0 ~m:rows ~n:w ~k:d ()),
      Dispatch.brgemm (Brgemm.make_config ~beta:0.0 ~m:rows ~n:d ~k:n ()) )
  in
  (* Row block b covers query rows [r0, r0 + rows); blocks are aligned to
     the last row, so only the first may be short. With [causal], row r
     attends keys [0, r + nk - nq], so the block's n live keys are those
     of its last row; at least one, so that a block whose rows have none
     still runs, and redoes itself at full width. Where n < nk the scores
     span w = n + 1 keys, so that every row, the last included, has a
     masked column in which the softmax sees whether its tail is +0.
     Each block keeps its kernels. *)
  let blocks =
    Array.init nb (fun b ->
        let r1 = nq - ((nb - 1 - b) * row_block) in
        let r0 = Int.max 0 (r1 - row_block) in
        let n =
          if causal then Int.max 1 (Int.min nk (r1 + nk - nq)) else nk
        in
        let w = Int.min nk (n + 1) in
        (r0, r1 - r0, n, w, kernels ~rows:(r1 - r0) ~w ~n))
  in
  let scores =
    Array.fold_left (fun acc (_, rows, _, w, _) -> acc + (nh * rows * w)) 0 blocks
  in
  (* K_h^T of every head, [d x nk] each, one after another *)
  let kt = buffer (nh * d * nk) in
  for h = h0 to h1 - 1 do
    Tpp_unary.transpose ~inp:(head_view k ~heads ~h)
      ~out:(window kt ~off:((h - h0) * d * nk) ~rows:d ~cols:nk ~ld:nk)
  done;
  (* Rows [r0, r0 + rows) of head h against keys [0, w), in the score
     scratch [s]: S = Q K^T, then scale, mask and softmax in one pass a
     row, then C = S V over the n live keys. Every key past a row's
     causal limit holds +0 after the softmax, and BRGEMM adds or skips
     a +0 without changing a bit, so stopping at n is exact. A row whose
     masked tail is not +0 makes the block redo itself over all nk keys,
     as one full-width call computes it. *)
  let rec block s ~h ~r0 ~rows ~n ~w (score_ker, ctx_ker) =
    let sv = window s ~off:0 ~rows ~cols:w ~ld:w in
    Brgemm.exec score_ker
      ~a:(Tensor.view_flat q ~off:((r0 * hidden) + (h * d)) ~rows ~cols:d
            ~ld:hidden)
      ~b:(window kt ~off:((h - h0) * d * nk) ~rows:d ~cols:w ~ld:nk)
      ~c:sv;
    let causal = if causal then Some (r0 + nk - nq) else None in
    let tails = Blocks.softmax_rows_tails ~scale ?causal ~inp:sv ~out:sv () in
    if tails > 0 && n < nk then
      block s ~h ~r0 ~rows ~n:nk ~w:nk (kernels ~rows ~w:nk ~n:nk)
    else
      Brgemm.exec ctx_ker
        ~a:(window s ~off:0 ~rows ~cols:n ~ld:w)
        ~b:(Tensor.view_flat v ~off:(h * d) ~rows:n ~cols:d ~ld:hidden)
        ~c:(Tensor.view_flat out ~off:((r0 * hidden) + (h * d)) ~rows
              ~cols:d ~ld:hidden)
  in
  (* item i: the last row blocks first, as they hold the most live keys *)
  let items = nh * nb in
  let item s i =
    let r0, rows, n, w, kers = blocks.(nb - 1 - (i / nh)) in
    block s ~h:(h0 + (i mod nh)) ~r0 ~rows ~n ~w kers
  in
  let scratch = Int.min row_block nq * nk in
  let nthreads =
    match nthreads with
    | Some n -> n
    | None -> Threaded_loop.default_threads ()
  in
  if nthreads <= 1 || items <= 1 || nq = 1 || scores < inline_scores then begin
    let s = buffer scratch in
    for i = 0 to items - 1 do
      item s i
    done
  end
  else
    Team.run ~nthreads (fun ctx ->
        let s = buffer scratch in
        let rec loop () =
          let i = ctx.Team.fetch_chunk ~instance:0 ~chunk:1 in
          if i < items then begin
            item s i;
            loop ()
          end
        in
        loop ())

let attend ?nthreads ?causal ~heads q k v =
  let out = Tensor.create Datatype.F32 [| Tensor.dim q 0; Tensor.dim q 1 |] in
  attend_range ?nthreads ?causal ~heads ~h0:0 ~h1:heads ~out q k v;
  out

let reference_forward ?(causal = false) t x =
  let n = Tensor.dim x 0 in
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
