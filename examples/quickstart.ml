(* Quickstart: the paper's Listing 1 in ~20 lines of user code.

   Declare the three logical GEMM loops, pick an instantiation with a
   single runtime knob (the loop_spec_string), and express the kernel
   body with TPPs and the logical indices. The same code runs any
   instantiation — serial, blocked, collapsed-parallel or an explicit
   thread grid — and any precision.

     dune exec examples/quickstart.exe

   Exits 1 if an instantiation's result differs from the reference.
*)

let () =
  let m, n, k = (256, 256, 256) in
  let rng = Prng.create 42 in
  let a = Tensor.create Datatype.F32 [| m; k |] in
  let b = Tensor.create Datatype.F32 [| k; n |] in
  Tensor.fill_random a rng ~scale:1.0;
  Tensor.fill_random b rng ~scale:1.0;

  (* blocked GEMM: logical loops a (K blocks), b (M blocks), c (N blocks) *)
  let cfg =
    (* the blocking lists supply the extra loop levels that multi-level
       spec strings (e.g. "bcaBCb") consume *)
    Gemm.make_config ~bm:32 ~bn:32 ~bk:32 ~k_step:2 ~mk_blocks:[ 4; 2 ]
      ~nk_blocks:[ 4 ] ~m ~n ~k ()
  in

  (* the SAME user code, three very different loop instantiations *)
  let checks =
    List.map
      (fun spec_string ->
        let gemm = Gemm.create cfg spec_string in
        let t0 = Unix.gettimeofday () in
        let c = Gemm.run_logical ~nthreads:4 gemm ~a ~b in
        let dt = Unix.gettimeofday () -. t0 in
        let expect = Reference.matmul a b in
        let correct = Tensor.approx_equal ~tol:1e-4 c expect in
        Printf.printf "%-28s %8.2f GFLOPS  correct=%b\n" spec_string
          (Gemm.flops cfg /. dt /. 1e9)
          correct;
        correct)
      [
        "BCa" (* M,N collapsed parallel, K inner *);
        "bcaBCb" (* two-level blocked, inner pair parallel *);
        "BCa @ schedule(dynamic,1)" (* OpenMP-style dynamic scheduling *);
      ]
  in

  (* the JIT cache makes re-creating a known instantiation free *)
  let hits, misses = Threaded_loop.cache_stats () in
  Printf.printf "loop-nest JIT cache: %d hits, %d misses\n" hits misses;
  if not (List.for_all Fun.id checks) then exit 1
