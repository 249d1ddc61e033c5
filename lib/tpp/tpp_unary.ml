module View = Tensor.View

type op =
  | Zero
  | Copy
  | Relu
  | Gelu
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
  | Gelu -> "gelu"
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
  | Copy -> assert false

let exec op ~inp ~out =
  assert (inp.View.rows = out.View.rows && inp.View.cols = out.View.cols);
  match op with
  | Copy -> copy_view inp out
  | _ ->
    Eltwise.check_view "Tpp_unary.exec: inp" inp;
    Eltwise.check_view "Tpp_unary.exec: out" out;
    let a = match op with Scale a | Shift a -> a | _ -> 0.0 in
    Eltwise.unary (native_code op) a inp out

let transpose ~inp ~out =
  assert (out.View.rows = inp.View.cols && out.View.cols = inp.View.rows);
  copy_view ~transpose:true inp out
