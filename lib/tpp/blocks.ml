module View = Tensor.View

let softmax_rows_tails ~scale ?causal ~inp ~out () =
  assert (inp.View.rows = out.View.rows && inp.View.cols = out.View.cols);
  Eltwise.check_view "Blocks.softmax_rows: inp" inp;
  Eltwise.check_view "Blocks.softmax_rows: out" out;
  match causal with
  | None -> Eltwise.softmax scale 0 0 inp out
  | Some offset -> Eltwise.softmax scale 1 offset inp out

let softmax_rows ~scale ?causal ~inp ~out () =
  ignore (softmax_rows_tails ~scale ?causal ~inp ~out () : int)

let swiglu ~gate ~inp ~out =
  assert (gate.View.rows = out.View.rows && gate.View.cols = out.View.cols);
  assert (inp.View.rows = out.View.rows && inp.View.cols = out.View.cols);
  Eltwise.check_view "Blocks.swiglu: gate" gate;
  Eltwise.check_view "Blocks.swiglu: inp" inp;
  Eltwise.check_view "Blocks.swiglu: out" out;
  Eltwise.swiglu gate inp out

let layernorm_rows_nostats ~eps ~inp ~gamma ~beta ~out =
  let rows = inp.View.rows and cols = inp.View.cols in
  assert (gamma.View.cols = cols && beta.View.cols = cols);
  Eltwise.check_view "Blocks.layernorm: inp" inp;
  Eltwise.check "Blocks.layernorm: gamma" gamma ~rows:1 ~cols;
  Eltwise.check "Blocks.layernorm: beta" beta ~rows:1 ~cols;
  Eltwise.check "Blocks.layernorm: out" out ~rows ~cols;
  Eltwise.layernorm eps inp gamma beta out
