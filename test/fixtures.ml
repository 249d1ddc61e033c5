(* Serving fixtures shared by the kv, serve and cluster suites: the tiny
   model every serving test runs, deterministic requests, and the solo
   sequential replay (the loop the chaos harness's oracle runs) that
   batched, paged, speculative and sharded serving must match bit for
   bit. *)

let clean () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.disable ()

let make_llm () =
  let rng = Prng.create 7 in
  Llm.create ~rng ~block:8 Llm.tiny

(* exact float equality element-wise: tol 0 makes approx_equal "max
   |a-b| <= 0", i.e. bit-identical for non-NaN values *)
let bits_equal = Tensor.approx_equal ~tol:0.0

let frozen_now () = 0.0

(* a request with deterministic token ids derived from [id] *)
let mk_req ?(deadline_s = Float.infinity) ~prompt_len ~new_tokens id =
  let vocab = Llm.tiny.Llm.vocab in
  let prompt = Array.init prompt_len (fun i -> (7 + (3 * id) + i) mod vocab) in
  let gen = Array.init new_tokens (fun i -> (11 + (5 * id) + i) mod vocab) in
  Serve.Request.make ~id ~prompt ~gen ~deadline_s ()

(* reference: run one request alone against a fresh cache, no scheduler *)
let replay_sequential llm (req : Serve.Request.t) =
  let cache = Llm.new_cache llm in
  let first = Llm.prefill llm cache (Llm.embed llm req.Serve.Request.prompt) in
  let outs = ref [ first ] in
  for k = 0 to req.Serve.Request.new_tokens - 2 do
    let e = Llm.embed llm [| req.Serve.Request.gen.(k) |] in
    outs := Llm.decode_step llm cache e :: !outs
  done;
  List.rev !outs
