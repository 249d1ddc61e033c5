(* Output checks. Serving: a finished request's hidden states must equal,
   bit for bit, a solo replay of the same tokens on a fresh contiguous
   cache (batching, paging and prefix sharing are all promised to be
   bit-identical to that). Kernels: outputs must agree with
   [Tensor.Reference] within a stated tolerance. *)

let same_bits a b =
  Tensor.dims a = Tensor.dims b
  &&
  let n = Tensor.numel a in
  let rec go i =
    i >= n
    || Int64.equal
         (Int64.bits_of_float (Tensor.get_flat a i))
         (Int64.bits_of_float (Tensor.get_flat b i))
       && go (i + 1)
  in
  go 0

(* Hidden states of [req] served alone: prefill, then one decode step per
   pre-drawn generator id. *)
let replay llm (req : Serve.Request.t) =
  let cache = Llm.new_cache llm in
  let first = Llm.prefill llm cache (Llm.embed llm req.Serve.Request.prompt) in
  let rec go k acc =
    if k > req.Serve.Request.new_tokens - 2 then List.rev acc
    else
      go (k + 1)
        (Llm.decode_step llm cache (Llm.embed llm [| req.Serve.Request.gen.(k) |])
        :: acc)
  in
  go 0 [ first ]

(* A request passes when it finished with every token and each emitted
   hidden state matches the replay exactly. *)
let request_ok llm (req : Serve.Request.t) =
  let outs = Serve.Request.outputs req in
  req.Serve.Request.state = Serve.Request.Finished
  && List.length outs = req.Serve.Request.new_tokens
  && List.for_all2 same_bits outs (replay llm req)

(* [sample ~seed k xs]: a seeded choice of at most [k] elements. *)
let sample ~seed k xs =
  let a = Array.of_list xs in
  Gen.shuffle (Gen.stream ~seed "oracle") a;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

(* Relative tolerances: FP32 kernels against the FP32 reference; BF16
   kernels (inputs rounded to BF16, FP32 accumulation) against the
   reference on the unrounded FP32 inputs. *)
let tol_f32 = 1e-4
let tol_bf16 = 1e-2

(* [close ~tol got want]: max |got - want| <= tol * (1 + max |want|). *)
let close ~tol got want =
  Tensor.dims got = Tensor.dims want && Tensor.approx_equal ~tol got want
