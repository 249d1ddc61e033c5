module View = Tensor.View

type op =
  | Zero
  | Copy
  | Relu
  | Relu_backward
  | Gelu
  | Gelu_backward
  | Sigmoid
  | Tanh
  | Exp
  | Sqrt
  | Square
  | Reciprocal
  | Negate
  | Abs
  | Scale of float
  | Shift of float

let op_to_string = function
  | Zero -> "zero"
  | Copy -> "copy"
  | Relu -> "relu"
  | Relu_backward -> "relu-bwd"
  | Gelu -> "gelu"
  | Gelu_backward -> "gelu-bwd"
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Exp -> "exp"
  | Sqrt -> "sqrt"
  | Square -> "square"
  | Reciprocal -> "reciprocal"
  | Negate -> "negate"
  | Abs -> "abs"
  | Scale a -> Printf.sprintf "scale(%g)" a
  | Shift a -> Printf.sprintf "shift(%g)" a

let inv_sqrt2 = 1.0 /. Float.sqrt 2.0
let inv_sqrt2pi = 1.0 /. Float.sqrt (2.0 *. Float.pi)

let gelu_grad x =
  let cdf = 0.5 *. (1.0 +. Float.erf (x *. inv_sqrt2)) in
  cdf +. (x *. inv_sqrt2pi *. exp (-0.5 *. x *. x))

let check_same_shape (a : View.t) (b : View.t) =
  assert (a.rows = b.rows && a.cols = b.cols)

(* [inp] into [out] through the strided copy, rounded to [out]'s dtype;
   [transpose] swaps the source's strides *)
let copy_view ?(transpose = false) (inp : View.t) (out : View.t) =
  Tensor.strided_copy out.View.dtype [| inp.View.rows; inp.View.cols |]
    ~src:inp.View.data ~src_off:inp.View.off
    ~src_strides:[| inp.View.ld; 1 |] ~dst:out.View.data ~dst_off:out.View.off
    ~dst_strides:(if transpose then [| 1; out.View.ld |] else [| out.View.ld; 1 |])

(* a pointwise op's code in the native evaluator (eltwise_stubs.c's
   [enum unary]) *)
let native_code = function
  | Zero -> 0
  | Relu -> 1
  | Gelu -> 2
  | Sigmoid -> 3
  | Tanh -> 4
  | Exp -> 5
  | Sqrt -> 6
  | Square -> 7
  | Reciprocal -> 8
  | Negate -> 9
  | Abs -> 10
  | Scale _ -> 11
  | Shift _ -> 12
  | Copy | Relu_backward | Gelu_backward -> assert false

let exec op ~inp ~out =
  check_same_shape inp out;
  match op with
  | Copy -> copy_view inp out
  | Relu_backward | Gelu_backward ->
    invalid_arg "Tpp_unary: backward ops need exec2"
  | _ ->
    Eltwise.check_view "Tpp_unary.exec: inp" inp;
    Eltwise.check_view "Tpp_unary.exec: out" out;
    let a = match op with Scale a | Shift a -> a | _ -> 0.0 in
    Eltwise.unary (native_code op) a inp out

let exec2 op ~inp ~aux ~out =
  check_same_shape inp out;
  check_same_shape aux out;
  let f =
    match op with
    | Relu_backward -> fun g x -> if x > 0.0 then g else 0.0
    | Gelu_backward -> fun g x -> g *. gelu_grad x
    | _ -> invalid_arg "Tpp_unary.exec2: not a two-input op"
  in
  for i = 0 to out.View.rows - 1 do
    for j = 0 to out.View.cols - 1 do
      View.set out i j (f (View.get inp i j) (View.get aux i j))
    done
  done

type reduce_kind = Sum | Max | Min
type reduce_axis = Rows | Cols

let reduce kind axis ~inp ~out =
  let combine, init =
    match kind with
    | Sum -> (( +. ), 0.0)
    | Max -> (Float.max, neg_infinity)
    | Min -> (Float.min, infinity)
  in
  (match axis with
  | Rows ->
    assert (out.View.rows = inp.View.rows && out.View.cols = 1);
    for i = 0 to inp.View.rows - 1 do
      let acc = ref init in
      for j = 0 to inp.View.cols - 1 do
        acc := combine !acc (View.get inp i j)
      done;
      View.set out i 0 !acc
    done
  | Cols ->
    assert (out.View.cols = inp.View.cols && out.View.rows = 1);
    for j = 0 to inp.View.cols - 1 do
      let acc = ref init in
      for i = 0 to inp.View.rows - 1 do
        acc := combine !acc (View.get inp i j)
      done;
      View.set out 0 j !acc
    done)

let transpose ~inp ~out =
  assert (out.View.rows = inp.View.cols && out.View.cols = inp.View.rows);
  copy_view ~transpose:true inp out

let convert ~inp ~out = exec Copy ~inp ~out

let broadcast_row ~inp ~out =
  assert (inp.View.rows = 1 && inp.View.cols = out.View.cols);
  for i = 0 to out.View.rows - 1 do
    for j = 0 to out.View.cols - 1 do
      View.set out i j (View.get inp 0 j)
    done
  done

let broadcast_col ~inp ~out =
  assert (inp.View.cols = 1 && inp.View.rows = out.View.rows);
  for i = 0 to out.View.rows - 1 do
    for j = 0 to out.View.cols - 1 do
      View.set out i j (View.get inp i 0)
    done
  done
