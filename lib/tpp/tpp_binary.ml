module View = Tensor.View

type op = Add | Sub | Mul | Div | Max | Min

type broadcast = Full | Row | Col | Scalar

let op_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Max -> "max"
  | Min -> "min"

(* codes in the native evaluator (eltwise_stubs.c's [enum binary] and
   [enum bcast]) *)
let op_code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Max -> 4
  | Min -> 5

let bcast_code = function Full -> 0 | Row -> 1 | Col -> 2 | Scalar -> 3

let exec op ~bcast ~a ~b ~out =
  assert (a.View.rows = out.View.rows && a.View.cols = out.View.cols);
  (match bcast with
  | Full -> assert (b.View.rows = out.View.rows && b.View.cols = out.View.cols)
  | Row -> assert (b.View.rows = 1 && b.View.cols = out.View.cols)
  | Col -> assert (b.View.cols = 1 && b.View.rows = out.View.rows)
  | Scalar -> assert (b.View.rows = 1 && b.View.cols = 1));
  Eltwise.check_view "Tpp_binary.exec: a" a;
  Eltwise.check_view "Tpp_binary.exec: b" b;
  Eltwise.check_view "Tpp_binary.exec: out" out;
  Eltwise.binary (op_code op) (bcast_code bcast) a b out
