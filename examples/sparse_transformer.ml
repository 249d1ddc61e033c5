(* Block-sparse transformer inference (§IV-B / Fig. 10): magnitude-prune a
   dense BERT's FC weights block-wise to 80% sparsity, so that each FC
   runs the Block-SpMM PARLOOPER kernel instead of the dense GEMM, and
   verify the sparse model is exact w.r.t. the dense kernels on the same
   pruned weights. Then measure the real kernel-level speedup of SpMM vs
   dense GEMM on this host. Exits 1 if the sparse and dense models
   disagree.

     dune exec examples/sparse_transformer.exe
*)

let () =
  let rng = Prng.create 11 in
  let bert = Bert.create ~rng ~block:16 Bert.tiny_config in
  let sparse, dense = Bert.sparsify ~bm:8 ~bk:8 ~sparsity:0.8 bert in
  Printf.printf "pruned BERT-tiny to %.0f%% block sparsity (8x8 blocks)\n"
    (100.0 *. Bert.achieved_sparsity sparse);

  let x = Tensor.create Datatype.F32 [| 32; Bert.tiny_config.Bert.hidden |] in
  Tensor.fill_random x rng ~scale:1.0;
  let ys = Bert.encode sparse x in
  let yd = Bert.encode dense x in
  let exact = Tensor.approx_equal ~tol:1e-3 ys yd in
  Printf.printf "sparse forward == dense kernels on pruned weights: %b\n"
    exact;
  Printf.printf "effective layer FLOPs at seq 64: %.1f%% of dense\n"
    (100.0
    *. Bert.layer_effective_flops sparse ~seq:64
    /. Bert.layer_effective_flops bert ~seq:64);

  (* real kernel-level speedup on this host *)
  let dim = 512 in
  let time_spmm sparsity =
    let a =
      Bcsc.random ~rng ~dtype:Datatype.F32 ~rows:dim ~cols:dim ~bm:16 ~bk:16
        ~sparsity
    in
    let b = Tensor.create Datatype.F32 [| dim; dim |] in
    Tensor.fill_random b rng ~scale:1.0;
    let cfg = Spmm_kernel.make_config ~m:dim ~n:dim ~k:dim ~bm:16 ~bk:16 () in
    let sp = Spmm_kernel.create cfg Spmm_kernel.default_spec in
    let bp = Spmm_kernel.pack_b cfg b in
    let c = Tensor.create Datatype.F32 [| dim; dim |] in
    Spmm_kernel.run sp ~a ~b:bp ~c;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 3 do
      Spmm_kernel.run sp ~a ~b:bp ~c
    done;
    (Unix.gettimeofday () -. t0) /. 3.0
  in
  let dense_t = time_spmm 0.0 and sparse_t = time_spmm 0.8 in
  Printf.printf
    "real Block-SpMM 512^3 on this host: dense %.1f ms, 80%% sparse %.1f ms \
     -> %.2fx\n"
    (dense_t *. 1e3) (sparse_t *. 1e3) (dense_t /. sparse_t);
  if not exact then exit 1
