(* The native element-wise evaluator (eltwise_stubs.c): Tpp_unary.exec's
   pointwise ops, Tpp_binary.exec, Blocks.softmax_rows, Blocks.swiglu and
   Blocks.layernorm_rows_nostats, one whole view per call, bit for bit the
   OCaml formulas they replaced (the contract is at the top of the C
   file).

   [@@noalloc]: the stubs never allocate, raise or release the runtime
   lock. They read the views' fields directly and trust the caller to
   have checked each view with [check]. *)

module View = Tensor.View

(* Every element a [rows x cols] window of [v] reaches must lie inside
   [v]'s buffer, as [Tensor.strided_copy] checks its sides *)
let check what (v : View.t) ~rows ~cols =
  if rows > 0 && cols > 0 then begin
    let span = (rows - 1) * v.View.ld in
    let first = v.View.off + Int.min 0 span
    and last = v.View.off + Int.max 0 span + cols - 1 in
    let len = Bigarray.Array1.dim v.View.data in
    if first < 0 || last >= len then
      invalid_arg
        (Printf.sprintf "%s reaches elements %d..%d of a %d-element buffer"
           what first last len)
  end

let check_view what (v : View.t) =
  check what v ~rows:v.View.rows ~cols:v.View.cols

(* [unary code a inp out]: Tpp_unary's op [code], [a] its constant *)
external unary :
  (int[@untagged]) -> (float[@unboxed]) -> View.t -> View.t -> unit
  = "tpp_eltwise_unary_byte" "tpp_eltwise_unary"
[@@noalloc]

(* [binary op bcast a b out]: Tpp_binary's op and broadcast codes *)
external binary : int -> int -> View.t -> View.t -> View.t -> unit
  = "tpp_eltwise_binary"
[@@noalloc]

(* [softmax scale causal offset inp out]: with [causal] <> 0, row i keeps
   its first i + offset + 1 scores; the number of rows whose masked tail
   is not +0 *)
external softmax :
  (float[@unboxed]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  View.t ->
  View.t ->
  (int[@untagged]) = "tpp_eltwise_softmax_byte" "tpp_eltwise_softmax"
[@@noalloc]

external swiglu : View.t -> View.t -> View.t -> unit = "tpp_eltwise_swiglu"
[@@noalloc]

(* [layernorm eps inp gamma beta out]: each row normalised, then scaled
   by [gamma] and shifted by [beta] *)
external layernorm :
  (float[@unboxed]) -> View.t -> View.t -> View.t -> View.t -> unit
  = "tpp_eltwise_layernorm_byte" "tpp_eltwise_layernorm"
[@@noalloc]
