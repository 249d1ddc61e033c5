(* Tests for the auto-tuner: factorization, constrained spec-string
   generation and the tuning loop itself. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let qt t = QCheck_alcotest.to_alcotest t

(* ---- factorize ---- *)

let test_factorize_known () =
  Alcotest.(check (list int)) "12" [ 2; 2; 3 ] (Factorize.factorize 12);
  Alcotest.(check (list int)) "prime" [ 97 ] (Factorize.factorize 97);
  Alcotest.(check (list int)) "1" [] (Factorize.factorize 1);
  Alcotest.(check (list int)) "64" [ 2; 2; 2; 2; 2; 2 ] (Factorize.factorize 64)

let prop_factorize_product =
  QCheck.Test.make ~name:"product of factors = n" ~count:200
    (QCheck.int_range 1 100000)
    (fun n -> List.fold_left ( * ) 1 (Factorize.factorize n) = n)

let prop_factors_are_prime =
  QCheck.Test.make ~name:"factors are prime" ~count:100
    (QCheck.int_range 2 10000)
    (fun n ->
      List.for_all
        (fun f -> List.length (Factorize.factorize f) = 1)
        (Factorize.factorize n))

let test_prefix_products () =
  Alcotest.(check (list int)) "12" [ 2; 4 ] (Factorize.prefix_products 12);
  Alcotest.(check (list int)) "8" [ 2; 4 ] (Factorize.prefix_products 8);
  Alcotest.(check (list int)) "prime" [] (Factorize.prefix_products 7)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Factorize.divisors 12)

let prop_blocking_lists_nested =
  QCheck.Test.make ~name:"blocking lists are perfectly nested" ~count:60
    QCheck.(pair (int_range 2 64) (int_range 1 3))
    (fun (trip, depth) ->
      Factorize.blocking_lists ~trip ~step:1 ~depth
      |> List.for_all (fun l ->
             List.length l = depth
             &&
             let rec nested = function
               | a :: (b :: _ as rest) -> a mod b = 0 && a > b && nested rest
               | _ -> true
             in
             nested l
             && List.for_all (fun d -> d > 1 && d < trip && trip mod d = 0) l))

(* ---- spec generation ---- *)

let cons_small =
  Spec_gen.gemm_constraints ~max_k_blockings:1 ~max_mn_blockings:1 ~trip_a:8
    ~trip_b:8 ~trip_c:8 ~step_a:1 ()

let test_generate_nonempty_and_capped () =
  let c = Spec_gen.generate ~max_candidates:50 cons_small in
  checkb "nonempty" true (List.length c > 0);
  checkb "capped" true (List.length c <= 50)

let test_generated_specs_all_compile () =
  let candidates = Spec_gen.generate ~max_candidates:300 cons_small in
  List.iter
    (fun (cand : Spec_gen.candidate) ->
      let specs =
        [
          Loop_spec.make ~bound:8 ~step:1
            ~block_steps:cand.Spec_gen.block_steps.(0) ();
          Loop_spec.make ~bound:8 ~step:1
            ~block_steps:cand.Spec_gen.block_steps.(1) ();
          Loop_spec.make ~bound:8 ~step:1
            ~block_steps:cand.Spec_gen.block_steps.(2) ();
        ]
      in
      match Threaded_loop.create specs cand.Spec_gen.spec with
      | _ -> ()
      | exception Threaded_loop.Invalid_spec m ->
        Alcotest.failf "candidate %S does not compile: %s" cand.Spec_gen.spec m)
    candidates

let test_generated_specs_distinct () =
  let candidates = Spec_gen.generate ~max_candidates:300 cons_small in
  let keys =
    List.map
      (fun (c : Spec_gen.candidate) ->
        ( c.Spec_gen.spec,
          Array.to_list (Array.map (List.map string_of_int) c.Spec_gen.block_steps)
        ))
      candidates
  in
  checki "no duplicates" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_generated_respects_parallelizable () =
  (* loop a (K) must never be capitalized *)
  let candidates = Spec_gen.generate ~max_candidates:300 cons_small in
  List.iter
    (fun (c : Spec_gen.candidate) ->
      checkb "K never parallel" false (String.contains c.Spec_gen.spec 'A'))
    candidates

let test_generated_has_parallel_variants () =
  let candidates = Spec_gen.generate ~max_candidates:300 cons_small in
  checkb "some parallel candidate" true
    (List.exists
       (fun (c : Spec_gen.candidate) ->
         String.exists (fun ch -> ch = 'B' || ch = 'C') c.Spec_gen.spec)
       candidates)

(* ---- autotune ---- *)

let base_cfg = Gemm.make_config ~bm:32 ~bn:32 ~bk:32 ~m:256 ~n:256 ~k:256 ()

let test_tune_modeled_ranked () =
  let report =
    Autotune.tune_gemm ~max_candidates:60
      (Autotune.Modeled { platform = Platform.zen4; nthreads = 8 })
      base_cfg
  in
  checkb "evaluated some" true (report.Autotune.evaluated > 10);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Autotune.gflops >= b.Autotune.gflops && sorted rest
    | _ -> true
  in
  checkb "ranked descending" true (sorted report.Autotune.ranked);
  checkb "times recorded" true (report.Autotune.tuning_seconds >= 0.0)

let test_tune_best_beats_serial () =
  let report =
    Autotune.tune_gemm ~max_candidates:120
      (Autotune.Modeled { platform = Platform.spr; nthreads = 16 })
      base_cfg
  in
  let best = List.hd report.Autotune.ranked in
  let serial =
    (Gemm_trace.score ~platform:Platform.spr ~nthreads:16 base_cfg "abc")
      .Perf_model.gflops
  in
  checkb "tuned beats serial" true (best.Autotune.gflops > serial)

let test_measure_gemm_runs () =
  let cfg = Gemm.make_config ~bm:16 ~bn:16 ~bk:16 ~m:64 ~n:64 ~k:64 () in
  let g = Autotune.measure_gemm ~nthreads:2 ~repeats:2 cfg "BCa" in
  checkb "positive gflops" true (g > 0.0)

(* ---- model-guided search ---- *)

let default_cand =
  { Spec_gen.spec = Gemm.default_spec; block_steps = [| []; []; [] |] }

(* one and two mutation steps away from the default instantiation *)
let mutation_closure cons =
  let one = Search.neighbors cons default_cand in
  let two = List.concat_map (Search.neighbors cons) one in
  default_cand :: (one @ two)

let test_mutations_parse_and_stay_legal () =
  let cands = mutation_closure cons_small in
  checkb "closure is nonempty" true (List.length cands > 10);
  List.iter
    (fun (c : Spec_gen.candidate) ->
      (match Spec_parser.parse_result c.Spec_gen.spec with
      | Ok parsed ->
        (* occurrence counts track the blocking chains: depth+1 each *)
        Array.iteri
          (fun l chain ->
            checki
              (Printf.sprintf "%S: loop %d occurrences" c.Spec_gen.spec l)
              (List.length chain + 1)
              (Spec_parser.occurrence_count parsed l))
          c.Spec_gen.block_steps
      | Error e ->
        Alcotest.failf "mutated spec %S does not parse: %s" c.Spec_gen.spec
          (Spec_parser.error_to_string e));
      (* the reduction loop must stay serial: bit-identity precondition *)
      checkb
        (Printf.sprintf "%S: K never parallel" c.Spec_gen.spec)
        false
        (String.contains c.Spec_gen.spec 'A'))
    cands

let test_mutations_compile () =
  List.iter
    (fun (c : Spec_gen.candidate) ->
      let specs =
        List.mapi
          (fun l _ ->
            Loop_spec.make ~bound:8 ~step:1
              ~block_steps:c.Spec_gen.block_steps.(l) ())
          [ (); (); () ]
      in
      match Threaded_loop.create specs c.Spec_gen.spec with
      | _ -> ()
      | exception Threaded_loop.Invalid_spec m ->
        Alcotest.failf "mutated spec %S does not compile: %s" c.Spec_gen.spec
          m)
    (mutation_closure cons_small)

let ranked_keys (r : Search.report) =
  List.map
    (fun (e : Autotune.entry) ->
      ( e.Autotune.spec,
        e.Autotune.cfg.Gemm.kk_blocks,
        e.Autotune.cfg.Gemm.mk_blocks,
        e.Autotune.cfg.Gemm.nk_blocks,
        e.Autotune.gflops ))
    r.Search.ranked

let test_search_deterministic () =
  let run () =
    Search.search
      ~strategy:(Search.Bandit { epsilon = 0.3; rounds = 40 })
      ~max_evals:80 ~seed:7 ~platform:Platform.spr ~nthreads:16 base_cfg
  in
  let a = run () and b = run () in
  checki "same evaluated" a.Search.evaluated b.Search.evaluated;
  checkb "same ranking" true (ranked_keys a = ranked_keys b);
  (* a different seed explores differently (sanity that the seed matters) *)
  let c =
    Search.search
      ~strategy:(Search.Bandit { epsilon = 0.3; rounds = 40 })
      ~max_evals:80 ~seed:8 ~platform:Platform.spr ~nthreads:16 base_cfg
  in
  checkb "seed changes exploration" true
    (ranked_keys a <> ranked_keys c || a.Search.evaluated = c.Search.evaluated)

let test_search_matches_exhaustive_cheaply () =
  (* k_step = 1 keeps the K loop's 4 iterations in the space; at the
     full-K default the space is too small for 100 evaluations to stay
     under 10% of it *)
  let cfg =
    Gemm.make_config ~bm:32 ~bn:32 ~bk:32 ~k_step:1 ~m:128 ~n:128 ~k:128 ()
  in
  let ex =
    Autotune.tune_gemm ~max_candidates:100_000
      (Autotune.Modeled { platform = Platform.spr; nthreads = 16 })
      cfg
  in
  let ex_best = (List.hd ex.Autotune.ranked).Autotune.gflops in
  let r = Search.search ~platform:Platform.spr ~nthreads:16 ~max_evals:100 cfg in
  let best = (List.hd r.Search.ranked).Autotune.gflops in
  checkb "within 2% of exhaustive best" true (best >= 0.98 *. ex_best);
  checkb "under 10% of the space" true
    (10 * r.Search.evaluated < r.Search.space);
  checkb "steps recorded" true (r.Search.steps <> []);
  checkb "space matches enumeration" true
    (r.Search.space = ex.Autotune.evaluated + ex.Autotune.skipped)

let test_search_measured_refinement () =
  let cfg = Gemm.make_config ~bm:16 ~bn:16 ~bk:16 ~m:32 ~n:32 ~k:32 () in
  let r =
    Search.search ~platform:Platform.spr ~nthreads:4 ~max_evals:20
      ~measure_top:2 ~measure_repeats:1 ~measure_nthreads:1 cfg
  in
  checkb "measured some" true (r.Search.measured > 0);
  (* measured entries lead the ranking and carry the model's prediction *)
  let first = List.hd r.Search.ranked in
  checkb "leader was measured" true (first.Autotune.predicted_gflops <> None)

(* ---- online spec cache ---- *)

let test_spec_cache_swaps_and_serves () =
  Spec_cache.enable ~max_evals:40 ~platform:Platform.spr ~nthreads:4 ();
  Fun.protect ~finally:Spec_cache.disable (fun () ->
      let cfg =
        Gemm.make_config ~bm:32 ~bn:32 ~bk:32 ~m:128 ~n:128 ~k:128 ()
      in
      (* first arrival: default served, shape queued *)
      let g0 = Gemm.create_resolved cfg "bca" in
      checkb "first arrival keeps caller spec" true (Gemm.spec g0 = "bca");
      checkb "drained" true (Spec_cache.drain ~timeout_s:30.0);
      let s = Spec_cache.stats () in
      checkb "tuned in background" true (s.Spec_cache.tunes > 0);
      checki "nothing rejected" 0 s.Spec_cache.rejected;
      (* "bca" is far from the model optimum: the tuner must have swapped *)
      checkb "hot-swapped" true (s.Spec_cache.swaps > 0);
      let g1 = Gemm.create_resolved cfg "bca" in
      checkb "resolved to tuned spec" true (Gemm.spec g1 <> "bca");
      checkb "hit recorded" true ((Spec_cache.stats ()).Spec_cache.hits > 0);
      (* bit-identity of the swapped instantiation against the default *)
      let rng = Prng.create 99 in
      let a = Tensor.create Datatype.F32 [| 128; 128 |] in
      let b = Tensor.create Datatype.F32 [| 128; 128 |] in
      Tensor.fill_random a rng ~scale:1.0;
      Tensor.fill_random b rng ~scale:1.0;
      let c0 = Gemm.run_logical (Gemm.create cfg "bca") ~a ~b in
      let c1 = Gemm.run_logical g1 ~a ~b in
      let identical = ref true in
      for i = 0 to Tensor.numel c0 - 1 do
        if
          Int64.bits_of_float (Tensor.get_flat c0 i)
          <> Int64.bits_of_float (Tensor.get_flat c1 i)
        then identical := false
      done;
      checkb "bit-identical outputs" true !identical)

let () =
  Alcotest.run "tuner"
    [
      ( "factorize",
        [
          Alcotest.test_case "known factorizations" `Quick test_factorize_known;
          qt prop_factorize_product;
          qt prop_factors_are_prime;
          Alcotest.test_case "prefix products" `Quick test_prefix_products;
          Alcotest.test_case "divisors" `Quick test_divisors;
          qt prop_blocking_lists_nested;
        ] );
      ( "spec-gen",
        [
          Alcotest.test_case "nonempty + capped" `Quick
            test_generate_nonempty_and_capped;
          Alcotest.test_case "all compile" `Quick test_generated_specs_all_compile;
          Alcotest.test_case "distinct" `Quick test_generated_specs_distinct;
          Alcotest.test_case "K never parallel" `Quick
            test_generated_respects_parallelizable;
          Alcotest.test_case "parallel variants exist" `Quick
            test_generated_has_parallel_variants;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "modeled ranking" `Quick test_tune_modeled_ranked;
          Alcotest.test_case "beats serial" `Quick test_tune_best_beats_serial;
          Alcotest.test_case "measured objective" `Quick test_measure_gemm_runs;
        ] );
      ( "search",
        [
          Alcotest.test_case "mutations parse + stay legal" `Quick
            test_mutations_parse_and_stay_legal;
          Alcotest.test_case "mutations compile" `Quick test_mutations_compile;
          Alcotest.test_case "seeded determinism" `Quick
            test_search_deterministic;
          Alcotest.test_case "matches exhaustive cheaply" `Quick
            test_search_matches_exhaustive_cheaply;
          Alcotest.test_case "measured refinement" `Quick
            test_search_measured_refinement;
        ] );
      ( "spec-cache",
        [
          Alcotest.test_case "swap + serve + bit-identity" `Quick
            test_spec_cache_swaps_and_serves;
        ] );
    ]
