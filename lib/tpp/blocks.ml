module View = Tensor.View

(* [mul] is [*.] returning the first operand's NaN when both are NaN, as
   [Tpp_binary.Mul] does: which NaN an x86 multiply returns depends on
   the operand order the compiler picks for it. *)
let[@inline] mul a b = if Float.is_nan a then a else a *. b

(* [Float.max], whose sign-bit tests are C calls, taken only where the
   two values are equal or one is NaN *)
let[@inline] fmax x y = if y > x then y else if x > y then x else Float.max x y

(* -1e30 as an FP32 store rounds it: the value a masked score holds *)
let masked_score = Int32.float_of_bits (Int32.bits_of_float (-1e30))

(* Each step reads what the separate scale, mask and softmax passes
   stored, in their order: the scaled row, stored and read back, then
   the max over the row, exp and the sum in column order, then the
   normalisation. The masked tail is a run of one value, so its max and
   exp are taken once. *)
let softmax_rows ~scale ?causal ~inp ~out () =
  assert (inp.View.rows = out.View.rows && inp.View.cols = out.View.cols);
  let cols = inp.View.cols in
  (* a local float, kept unboxed: [mul scale x] boxes its result, which
     one branch takes from the boxed argument *)
  let a = ref 1.0 in
  a := scale;
  for i = 0 to inp.View.rows - 1 do
    let live =
      match causal with
      | None -> cols
      | Some offset -> Int.max 0 (Int.min cols (i + offset + 1))
    in
    let mx = ref neg_infinity in
    for j = 0 to live - 1 do
      View.set out i j (mul !a (View.get inp i j));
      mx := fmax !mx (View.get out i j)
    done;
    if live < cols then mx := fmax !mx masked_score;
    let sum = ref 0.0 in
    for j = 0 to live - 1 do
      let e = exp (View.get out i j -. !mx) in
      View.set out i j e;
      sum := !sum +. e
    done;
    if live < cols then begin
      let e = exp (masked_score -. !mx) in
      for j = live to cols - 1 do
        View.set out i j e;
        sum := !sum +. e
      done
    end;
    let inv = 1.0 /. !sum in
    for j = 0 to cols - 1 do
      View.set out i j (mul (View.get out i j) inv)
    done
  done

(* x rounded to FP32, as a store into an FP32 tensor rounds it *)
let fl32 x = Int32.float_of_bits (Int32.bits_of_float x)

let swiglu ~gate ~inp ~out =
  assert (gate.View.rows = out.View.rows && gate.View.cols = out.View.cols);
  assert (inp.View.rows = out.View.rows && inp.View.cols = out.View.cols);
  for i = 0 to out.View.rows - 1 do
    for j = 0 to out.View.cols - 1 do
      let g = View.get gate i j in
      (* Tpp_unary.Sigmoid's formula *)
      let silu = fl32 (mul g (fl32 (1.0 /. (1.0 +. exp (-.g))))) in
      View.set out i j (mul (View.get inp i j) silu)
    done
  done

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

(* shared row loop; the training variant passes [stats] to save each
   row's mean and rstd for backward, the inference variant passes
   [None]. The two floats go straight into the float arrays, so neither
   variant allocates per row. *)
let layernorm_core ~eps ~inp ~gamma ~beta ~out ~stats =
  let rows = inp.View.rows and cols = inp.View.cols in
  assert (gamma.View.cols = cols && beta.View.cols = cols);
  let fcols = float_of_int cols in
  for i = 0 to rows - 1 do
    let m = ref 0.0 in
    for j = 0 to cols - 1 do
      m := !m +. View.get inp i j
    done;
    let mean = !m /. fcols in
    let v = ref 0.0 in
    for j = 0 to cols - 1 do
      let d = View.get inp i j -. mean in
      v := !v +. (d *. d)
    done;
    let rstd = 1.0 /. sqrt ((!v /. fcols) +. eps) in
    (match stats with
    | Some s ->
      s.mean.(i) <- mean;
      s.rstd.(i) <- rstd
    | None -> ());
    for j = 0 to cols - 1 do
      let nx = (View.get inp i j -. mean) *. rstd in
      View.set out i j ((nx *. View.get gamma 0 j) +. View.get beta 0 j)
    done
  done

let layernorm_rows ~eps ~inp ~gamma ~beta ~out =
  let rows = inp.View.rows in
  let stats = { mean = Array.make rows 0.0; rstd = Array.make rows 0.0 } in
  layernorm_core ~eps ~inp ~gamma ~beta ~out ~stats:(Some stats);
  stats

let layernorm_rows_nostats ~eps ~inp ~gamma ~beta ~out =
  layernorm_core ~eps ~inp ~gamma ~beta ~out ~stats:None

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
