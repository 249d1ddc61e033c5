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

(* Of two NaN operands, [apply]'s [Add] and [Mul] return the first, as a
   call through the closures [( +. )] and [( *. )] does: which NaN an x86
   instruction returns depends on the operand order the compiler picks
   for an inline [+.] or [*.]. [-.] and [/.] keep their order. *)
let[@inline] apply op x y =
  match op with
  | Add -> if Float.is_nan x then x else x +. y
  | Sub -> x -. y
  | Mul -> if Float.is_nan x then x else x *. y
  | Div -> x /. y
  | Max -> Float.max x y
  | Min -> Float.min x y

let exec op ~bcast ~a ~b ~out =
  assert (a.View.rows = out.View.rows && a.View.cols = out.View.cols);
  (match bcast with
  | Full -> assert (b.View.rows = out.View.rows && b.View.cols = out.View.cols)
  | Row -> assert (b.View.rows = 1 && b.View.cols = out.View.cols)
  | Col -> assert (b.View.cols = 1 && b.View.rows = out.View.rows)
  | Scalar -> assert (b.View.rows = 1 && b.View.cols = 1));
  for i = 0 to out.View.rows - 1 do
    for j = 0 to out.View.cols - 1 do
      let y =
        match bcast with
        | Full -> View.get b i j
        | Row -> View.get b 0 j
        | Col -> View.get b i 0
        | Scalar -> View.get b 0 0
      in
      View.set out i j (apply op (View.get a i j) y)
    done
  done

let muladd ~a ~b ~c ~out =
  assert (
    a.View.rows = out.View.rows && a.View.cols = out.View.cols
    && b.View.rows = out.View.rows
    && b.View.cols = out.View.cols
    && c.View.rows = out.View.rows
    && c.View.cols = out.View.cols);
  for i = 0 to out.View.rows - 1 do
    for j = 0 to out.View.cols - 1 do
      View.set out i j ((View.get a i j *. View.get b i j) +. View.get c i j)
    done
  done

let axpy ~alpha ~a ~out =
  assert (a.View.rows = out.View.rows && a.View.cols = out.View.cols);
  for i = 0 to out.View.rows - 1 do
    for j = 0 to out.View.cols - 1 do
      View.set out i j (View.get out i j +. (alpha *. View.get a i j))
    done
  done
