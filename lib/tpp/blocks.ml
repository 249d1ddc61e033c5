module View = Tensor.View

let softmax_rows ~scale ?causal ~inp ~out () =
  assert (inp.View.rows = out.View.rows && inp.View.cols = out.View.cols);
  Eltwise.check_view "Blocks.softmax_rows: inp" inp;
  Eltwise.check_view "Blocks.softmax_rows: out" out;
  match causal with
  | None -> Eltwise.softmax scale 0 0 inp out
  | Some offset -> Eltwise.softmax scale 1 offset inp out

let swiglu ~gate ~inp ~out =
  assert (gate.View.rows = out.View.rows && gate.View.cols = out.View.cols);
  assert (inp.View.rows = out.View.rows && inp.View.cols = out.View.cols);
  Eltwise.check_view "Blocks.swiglu: gate" gate;
  Eltwise.check_view "Blocks.swiglu: inp" inp;
  Eltwise.check_view "Blocks.swiglu: out" out;
  Eltwise.swiglu gate inp out

let softmax_rows_backward ~y ~dy ~dx =
  for i = 0 to y.View.rows - 1 do
    let dot = ref 0.0 in
    for j = 0 to y.View.cols - 1 do
      dot := !dot +. (View.get dy i j *. View.get y i j)
    done;
    for j = 0 to y.View.cols - 1 do
      View.set dx i j (View.get y i j *. (View.get dy i j -. !dot))
    done
  done

type layernorm_stats = { mean : float array; rstd : float array }

(* the training variant passes [stats] with [rows] elements each, to
   hold each row's mean and rstd for backward; the inference variant
   passes empty arrays *)
let layernorm_core ~eps ~inp ~gamma ~beta ~out ~stats =
  let rows = inp.View.rows and cols = inp.View.cols in
  assert (gamma.View.cols = cols && beta.View.cols = cols);
  Eltwise.check_view "Blocks.layernorm: inp" inp;
  Eltwise.check "Blocks.layernorm: gamma" gamma ~rows:1 ~cols;
  Eltwise.check "Blocks.layernorm: beta" beta ~rows:1 ~cols;
  Eltwise.check "Blocks.layernorm: out" out ~rows ~cols;
  Eltwise.layernorm eps inp gamma beta out stats.mean stats.rstd

let no_stats = { mean = [||]; rstd = [||] }

let layernorm_rows ~eps ~inp ~gamma ~beta ~out =
  let rows = inp.View.rows in
  let stats = { mean = Array.make rows 0.0; rstd = Array.make rows 0.0 } in
  layernorm_core ~eps ~inp ~gamma ~beta ~out ~stats;
  stats

let layernorm_rows_nostats ~eps ~inp ~gamma ~beta ~out =
  layernorm_core ~eps ~inp ~gamma ~beta ~out ~stats:no_stats

let layernorm_rows_backward ~stats ~x ~gamma ~dy ~dx ~dgamma ~dbeta =
  let rows = x.View.rows and cols = x.View.cols in
  let fcols = float_of_int cols in
  for i = 0 to rows - 1 do
    let mean = stats.mean.(i) and rstd = stats.rstd.(i) in
    (* two row reductions of the standard layernorm backward formula *)
    let sum_dyg = ref 0.0 and sum_dyg_nx = ref 0.0 in
    for j = 0 to cols - 1 do
      let nx = (View.get x i j -. mean) *. rstd in
      let dyg = View.get dy i j *. View.get gamma 0 j in
      sum_dyg := !sum_dyg +. dyg;
      sum_dyg_nx := !sum_dyg_nx +. (dyg *. nx)
    done;
    for j = 0 to cols - 1 do
      let nx = (View.get x i j -. mean) *. rstd in
      let dyg = View.get dy i j *. View.get gamma 0 j in
      let d =
        rstd /. fcols *. ((fcols *. dyg) -. !sum_dyg -. (nx *. !sum_dyg_nx))
      in
      View.set dx i j d;
      View.set dgamma 0 j (View.get dgamma 0 j +. (View.get dy i j *. nx));
      View.set dbeta 0 j (View.get dbeta 0 j +. View.get dy i j)
    done
  done

let dropout ~rng ~p ~inp ~mask ~out =
  assert (p >= 0.0 && p < 1.0);
  let scale = 1.0 /. (1.0 -. p) in
  for i = 0 to inp.View.rows - 1 do
    for j = 0 to inp.View.cols - 1 do
      let keep = p = 0.0 || not (Prng.bernoulli rng ~p) in
      View.set mask i j (if keep then 1.0 else 0.0);
      View.set out i j (if keep then View.get inp i j *. scale else 0.0)
    done
  done

let dropout_backward ~p ~dy ~mask ~dx =
  let scale = 1.0 /. (1.0 -. p) in
  for i = 0 to dy.View.rows - 1 do
    for j = 0 to dy.View.cols - 1 do
      View.set dx i j (View.get dy i j *. View.get mask i j *. scale)
    done
  done

let batchnorm_apply ~eps ~mean ~var ~gamma ~beta ~inp ~out =
  let scale = gamma /. sqrt (var +. eps) in
  for i = 0 to inp.View.rows - 1 do
    for j = 0 to inp.View.cols - 1 do
      View.set out i j (((View.get inp i j -. mean) *. scale) +. beta)
    done
  done
