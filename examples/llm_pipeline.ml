(* LLM inference pipeline (§IV-A / Fig. 11) at executable scale: prefill +
   KV-cached decoding on a small decoder, verified against the uncached
   full forward, plus the paper-scale latency model for GPT-J-6B and
   Llama2-13B.

     dune exec examples/llm_pipeline.exe

   Exits 1 if the cached decode differs from the full forward.
*)

let () =
  let rng = Prng.create 5 in
  let llm = Llm.create ~rng ~block:8 Llm.tiny in
  let n_in = 12 and n_out = 4 in
  let ids = Array.init (n_in + n_out) (fun i -> (i * 5) mod Llm.tiny.Llm.vocab) in
  let emb = Llm.embed llm ids in

  (* prefill over the prompt *)
  let cache = Llm.new_cache llm in
  let prompt =
    Tensor.init Datatype.F32 [| n_in; Llm.tiny.Llm.hidden |] (fun i ->
        Tensor.get emb i)
  in
  let t0 = Unix.gettimeofday () in
  let _first = Llm.prefill llm cache prompt in
  let t_first = Unix.gettimeofday () -. t0 in

  (* decode one token at a time against the cache *)
  let t0 = Unix.gettimeofday () in
  let last = ref None in
  for t = n_in to n_in + n_out - 1 do
    let e =
      Tensor.init Datatype.F32 [| 1; Llm.tiny.Llm.hidden |] (fun i ->
          Tensor.get emb [| t; i.(1) |])
    in
    last := Some (Llm.decode_step llm cache e)
  done;
  let t_next = (Unix.gettimeofday () -. t0) /. float_of_int n_out in

  (* the cached pipeline must equal the uncached full forward *)
  let full = Llm.forward_full llm emb in
  let expect =
    Tensor.init Datatype.F32 [| 1; Llm.tiny.Llm.hidden |] (fun i ->
        Tensor.get full [| n_in + n_out - 1; i.(1) |])
  in
  let exact = Tensor.approx_equal ~tol:1e-3 (Option.get !last) expect in
  Printf.printf
    "tiny decoder: prefill(%d tokens) %.2f ms, decode %.2f ms/token, \
     KV-cache exact: %b\n"
    n_in (t_first *. 1e3) (t_next *. 1e3) exact;

  (* paper-scale latency structure (compute-bound prefill vs
     bandwidth-bound decode) *)
  List.iter
    (fun cfg ->
      Printf.printf
        "%s: %.1f TFLOPs prefill(1024), %.1f GFLOPs/decode-step, %.1f GB \
         weights (bf16)\n"
        cfg.Llm.name
        (Llm.prefill_flops cfg ~n_in:1024 /. 1e12)
        (Llm.decode_flops cfg ~past:1024 /. 1e9)
        (Llm.param_bytes cfg Datatype.BF16 /. 1e9))
    [ Llm.gptj_6b; Llm.llama2_13b ];
  if not exact then exit 1
