(* End-to-end BERT encoder inference (§IV-A) at executable scale: the four
   fused PARLOOPER/TPP modules (embeddings, self-attention,
   output/self-output, intermediate) running a full forward pass, verified
   against a naive reference.

     dune exec examples/bert_inference.exe

   Exits 1 if the fused layer does not match the reference.
*)

let () =
  let rng = Prng.create 7 in
  let cfg = Bert.tiny_config in
  let bert = Bert.create ~rng ~block:16 cfg in
  let seq = 32 in
  let ids = Array.init seq (fun i -> (i * 13) mod cfg.Bert.vocab) in

  let t0 = Unix.gettimeofday () in
  ignore (Bert.forward ~nthreads:2 bert ids);
  let dt = Unix.gettimeofday () -. t0 in

  Printf.printf "BERT (%d layers, hidden %d, %d heads) forward on %d tokens\n"
    cfg.Bert.layers cfg.Bert.hidden cfg.Bert.heads seq;
  Printf.printf "  %.1f ms, %.2f MFLOPs of contractions\n" (dt *. 1e3)
    (Bert.forward_flops cfg ~seq /. 1e6);

  (* verify one encoder layer against the naive reference *)
  let x = Tensor.create Datatype.F32 [| seq; cfg.Bert.hidden |] in
  Tensor.fill_random x rng ~scale:1.0;
  let layer = bert.Bert.encoder.(0) in
  let fused = Bert.encoder_layer layer x in
  let reference = Bert.reference_encoder_layer layer x in
  let matches = Tensor.approx_equal ~tol:1e-3 fused reference in
  Printf.printf "  fused layer matches reference: %b (max diff %.2e)\n"
    matches
    (Tensor.max_abs_diff fused reference);

  (* paper-scale shapes drive the Fig. 9 throughput model *)
  Printf.printf
    "BERT-Large training step at seq 384: %.1f GFLOPs (x3 for fwd+bwd)\n"
    (Bert.train_step_flops Bert.large_config ~seq:384 ~batch:1 /. 1e9);
  if not matches then exit 1
