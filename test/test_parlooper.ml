(* Tests for the PARLOOPER core: spec-string parser, loop-nest semantics
   (coverage / uniqueness / ordering), both parallelization modes,
   barriers, the team runtime and the JIT cache. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let qt t = QCheck_alcotest.to_alcotest t

(* ---- parser ---- *)

let test_parse_simple () =
  let p = Spec_parser.parse "bcab" in
  checki "4 occurrences" 4 (List.length p.Spec_parser.occurrences);
  checki "b twice" 2 (Spec_parser.occurrence_count p 1);
  checki "c once" 1 (Spec_parser.occurrence_count p 2);
  checki "3 loops used" 3 (Spec_parser.num_loops_used p)

let test_parse_parallel () =
  let p = Spec_parser.parse "bcaBCb" in
  let pars =
    List.filter (fun o -> o.Spec_parser.parallel) p.Spec_parser.occurrences
  in
  checki "two parallel" 2 (List.length pars);
  checkb "no grid" false (Spec_parser.has_grid p)

let test_parse_grid () =
  let p = Spec_parser.parse "bC{R:16}aB{C:4}cb" in
  checkb "has grid" true (Spec_parser.has_grid p);
  let r, c, l = Spec_parser.grid_shape p in
  checki "R" 16 r;
  checki "C" 4 c;
  checki "L" 1 l

let test_parse_directives () =
  let p = Spec_parser.parse "bcaBCb @ schedule(dynamic, 1)" in
  checkb "dynamic" true (p.Spec_parser.schedule = Spec_parser.Dynamic 1);
  let p = Spec_parser.parse "BCa @ schedule(dynamic,4)" in
  checkb "dynamic 4" true (p.Spec_parser.schedule = Spec_parser.Dynamic 4);
  let p = Spec_parser.parse "BCa @ schedule(static)" in
  checkb "static" true (p.Spec_parser.schedule = Spec_parser.Static);
  let p = Spec_parser.parse "BCa" in
  checkb "default static" true (p.Spec_parser.schedule = Spec_parser.Static)

let test_parse_barrier () =
  let p = Spec_parser.parse "aBC|b" in
  let with_barrier =
    List.filter (fun o -> o.Spec_parser.barrier_after) p.Spec_parser.occurrences
  in
  checki "one barrier" 1 (List.length with_barrier);
  checki "barrier on loop c" 2 (List.hd with_barrier).Spec_parser.loop

let test_parse_errors () =
  let expect_fail s =
    match Spec_parser.parse s with
    | exception Spec_parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect_fail "";
  expect_fail "b1c";
  expect_fail "|abc";
  expect_fail "B{X:4}";
  expect_fail "B{R:0}";
  expect_fail "B{R:4";
  expect_fail "abc @ schedule(guided)"

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      let p = Spec_parser.parse s in
      Alcotest.(check string) "roundtrip" s (Spec_parser.to_string p))
    [ "bcab"; "bcaBCb"; "bC{R:16}aB{C:4}cb"; "aBC|b"; "BCa @ schedule(dynamic,1)" ]

(* ---- nest semantics ---- *)

let specs_abc =
  [
    Loop_spec.make ~bound:4 ~step:1 ();
    Loop_spec.make ~bound:8 ~step:1 ~block_steps:[ 4; 2 ] ();
    Loop_spec.make ~bound:6 ~step:2 ~block_steps:[ 6 ] ();
  ]

let collect ?nthreads spec =
  let l = Threaded_loop.create specs_abc spec in
  let acc = ref [] in
  let lock = Mutex.create () in
  Threaded_loop.run ?nthreads l (fun ind ->
      Mutex.lock lock;
      acc := (ind.(0), ind.(1), ind.(2)) :: !acc;
      Mutex.unlock lock);
  List.sort compare !acc

let expected_abc =
  (* a in 0..3, b in 0..7, c in {0,2,4} *)
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> List.map (fun c -> (a, b, c)) [ 0; 2; 4 ])
        (List.init 8 Fun.id))
    (List.init 4 Fun.id)
  |> List.sort compare

let test_serial_coverage () =
  List.iter
    (fun s ->
      checkb (s ^ " covers space") true (collect s = expected_abc))
    [ "abc"; "cba"; "abcb"; "bacbb"; "abcc" ]

let test_serial_ordering_innermost () =
  (* with order "abc", c varies fastest *)
  let l = Threaded_loop.create specs_abc "abc" in
  let seq = ref [] in
  Threaded_loop.run l (fun ind -> seq := (ind.(0), ind.(1), ind.(2)) :: !seq);
  let seq = List.rev !seq in
  match seq with
  | (0, 0, 0) :: (0, 0, 2) :: (0, 0, 4) :: (0, 1, 0) :: _ -> ()
  | _ -> Alcotest.fail "wrong iteration order for abc"

let test_parallel_collapse_coverage () =
  List.iter
    (fun (s, n) ->
      checkb (s ^ " covers space") true (collect ~nthreads:n s = expected_abc))
    [ ("aBC", 3); ("BCa", 4); ("Abc", 2); ("bcaBCb", 3);
      ("BCa @ schedule(dynamic,1)", 5); ("aBC @ schedule(dynamic,2)", 2) ]

let test_grid_coverage () =
  List.iter
    (fun s -> checkb (s ^ " covers space") true (collect s = expected_abc))
    [ "bC{R:2}aB{C:2}cb"; "A{R:2}bc"; "B{R:4}aC{C:3}"; "A{R:2}B{C:2}C{L:3}" ]

let test_grid_thread_count () =
  let l = Threaded_loop.create specs_abc "bC{R:2}aB{C:2}cb" in
  checki "grid threads" 4 (Threaded_loop.threads_used l);
  match Threaded_loop.run ~nthreads:7 l (fun _ -> ()) with
  | exception Threaded_loop.Invalid_spec _ -> ()
  | _ -> Alcotest.fail "expected thread-count mismatch error"

let test_parallel_partition_disjoint () =
  (* each iteration must be executed exactly once: duplicates in the
     collected list would break the sorted-equality check only if also
     missing entries; check count too *)
  let c = collect ~nthreads:3 "BCa" in
  checki "exact count" (List.length expected_abc) (List.length c)

let test_traced_matches_run () =
  let l = Threaded_loop.create specs_abc "BCa @ schedule(dynamic,1)" in
  let traced = ref [] in
  Threaded_loop.run_traced ~nthreads:3 l (fun ~tid:_ ind ->
      traced := (ind.(0), ind.(1), ind.(2)) :: !traced);
  checkb "traced covers space" true
    (List.sort compare !traced = expected_abc)

let test_traced_static_assignment_matches_run () =
  (* static scheduling: run and trace assign identical index sets per tid *)
  let l = Threaded_loop.create specs_abc "BCa" in
  let by_tid_traced = Array.make 3 [] in
  Threaded_loop.run_traced ~nthreads:3 l (fun ~tid ind ->
      by_tid_traced.(tid) <- (ind.(0), ind.(1), ind.(2)) :: by_tid_traced.(tid));
  (* reconstruct run-time assignment via init/term trick: record with tid
     from a Team-like wrapper — instead exploit determinism: static
     assignment is computed from (tid, nthreads) only, so trace twice *)
  let second = Array.make 3 [] in
  Threaded_loop.run_traced ~nthreads:3 l (fun ~tid ind ->
      second.(tid) <- (ind.(0), ind.(1), ind.(2)) :: second.(tid));
  Array.iteri
    (fun t l1 -> checkb "deterministic" true (l1 = second.(t)))
    by_tid_traced

let test_body_invocations () =
  let l = Threaded_loop.create specs_abc "abc" in
  checki "invocations" (List.length expected_abc)
    (Threaded_loop.body_invocations l)

let test_non_divisible_bounds () =
  (* bound 7 with block 4: clamped trailing block *)
  let specs =
    [ Loop_spec.make ~bound:7 ~step:1 ~block_steps:[ 4 ] () ]
  in
  let l = Threaded_loop.create specs "aa" in
  let acc = ref [] in
  Threaded_loop.run l (fun ind -> acc := ind.(0) :: !acc);
  checkb "0..6 each once" true
    (List.sort compare !acc = List.init 7 Fun.id);
  (* parallel-collapsed blocked occurrence with clamping *)
  let l2 = Threaded_loop.create specs "aA" in
  let acc2 = ref [] in
  let lock = Mutex.create () in
  Threaded_loop.run ~nthreads:2 l2 (fun ind ->
      Mutex.lock lock;
      acc2 := ind.(0) :: !acc2;
      Mutex.unlock lock);
  checkb "clamped parallel covers" true
    (List.sort compare !acc2 = List.init 7 Fun.id)

let test_init_term_per_thread () =
  let l = Threaded_loop.create specs_abc "BCa" in
  let inits = Atomic.make 0 and terms = Atomic.make 0 in
  Threaded_loop.run ~nthreads:3
    ~init:(fun () -> Atomic.incr inits)
    ~term:(fun () -> Atomic.incr terms)
    l
    (fun _ -> ());
  checki "init per thread" 3 (Atomic.get inits);
  checki "term per thread" 3 (Atomic.get terms)

let test_barrier_pipeline () =
  (* MLP-style dependency: loop a = layers (serial, barrier after the
     parallel inner loop); each layer reads the previous layer's full
     output. With the barrier this is race-free and exact. *)
  let layers = 4 and width = 8 in
  let data = Array.make_matrix (layers + 1) width 0 in
  for j = 0 to width - 1 do
    data.(0).(j) <- 1
  done;
  let specs =
    [
      Loop_spec.make ~bound:layers ~step:1 ();
      Loop_spec.make ~bound:width ~step:1 ();
    ]
  in
  let l = Threaded_loop.create specs "aB|" in
  Threaded_loop.run ~nthreads:4 l (fun ind ->
      let layer = ind.(0) and j = ind.(1) in
      (* each output = sum of previous layer *)
      let s = ref 0 in
      for x = 0 to width - 1 do
        s := !s + data.(layer).(x)
      done;
      data.(layer + 1).(j) <- !s);
  (* expected: layer l values = width^l *)
  let expect = int_of_float (float_of_int width ** float_of_int layers) in
  checki "pipeline exact" expect data.(layers).(0)

let test_invalid_specs_rejected () =
  let expect_invalid specs s =
    match Threaded_loop.create specs s with
    | exception Threaded_loop.Invalid_spec _ -> ()
    | _ -> Alcotest.failf "expected Invalid_spec for %S" s
  in
  (* undeclared loop *)
  expect_invalid [ Loop_spec.make ~bound:4 ~step:1 () ] "ab";
  (* loop declared but unused *)
  expect_invalid
    [ Loop_spec.make ~bound:4 ~step:1 (); Loop_spec.make ~bound:4 ~step:1 () ]
    "a";
  (* not enough blocking steps *)
  expect_invalid [ Loop_spec.make ~bound:4 ~step:1 () ] "aa";
  (* imperfect nesting: 3 does not divide 4 *)
  expect_invalid
    [ Loop_spec.make ~bound:12 ~step:1 ~block_steps:[ 4; 3 ] () ]
    "aaa";
  (* mixing PAR-MODE 1 and 2 *)
  expect_invalid
    [ Loop_spec.make ~bound:4 ~step:1 (); Loop_spec.make ~bound:4 ~step:1 () ]
    "A{R:2}B"

let prop_random_serial_specs_cover =
  (* random loop declarations + random serial orders always cover the
     iteration space exactly once *)
  QCheck.Test.make ~name:"random serial nests cover iteration space"
    ~count:60
    QCheck.(
      quad (int_range 1 5) (int_range 1 6) (int_range 1 4) (int_range 0 5))
    (fun (b1, b2, step2, shuffle) ->
      let specs =
        [
          Loop_spec.make ~bound:b1 ~step:1 ();
          Loop_spec.make ~bound:(b2 * step2) ~step:step2 ();
        ]
      in
      let orders = [ "ab"; "ba"; "ab"; "ba"; "ab"; "ba" ] in
      let spec = List.nth orders (shuffle mod List.length orders) in
      let l = Threaded_loop.create specs spec in
      let acc = ref [] in
      Threaded_loop.run l (fun ind -> acc := (ind.(0), ind.(1)) :: !acc);
      let expected =
        List.concat_map
          (fun a -> List.init b2 (fun i -> (a, i * step2)))
          (List.init b1 Fun.id)
        |> List.sort compare
      in
      List.sort compare !acc = expected)

let prop_parallel_equals_serial =
  QCheck.Test.make ~name:"parallel multiset == serial multiset" ~count:40
    QCheck.(pair (int_range 1 6) (int_range 1 8))
    (fun (ba, bb) ->
      let specs =
        [
          Loop_spec.make ~bound:ba ~step:1 ();
          Loop_spec.make ~bound:bb ~step:1 ();
        ]
      in
      let run spec n =
        let l = Threaded_loop.create specs spec in
        let acc = ref [] in
        let lock = Mutex.create () in
        Threaded_loop.run ~nthreads:n l (fun ind ->
            Mutex.lock lock;
            acc := (ind.(0), ind.(1)) :: !acc;
            Mutex.unlock lock);
        List.sort compare !acc
      in
      run "ab" 1 = run "AB" 3 && run "ab" 1 = run "BA" 2)

(* ---- team ---- *)

let test_team_barrier_sync () =
  (* classic phase counter: all threads must see phase k complete before
     k+1 writes happen *)
  let n = 4 and phases = 5 in
  let counter = Atomic.make 0 in
  let ok = Atomic.make true in
  Team.run ~nthreads:n (fun ctx ->
      for p = 1 to phases do
        Atomic.incr counter;
        ctx.Team.barrier ();
        (* after the barrier every thread of phase p has incremented *)
        if Atomic.get counter < p * n then Atomic.set ok false;
        ctx.Team.barrier ()
      done);
  checkb "barrier ordering" true (Atomic.get ok);
  checki "total increments" (n * phases) (Atomic.get counter)

let test_team_exception_propagates () =
  match
    Team.run ~nthreads:3 (fun ctx ->
        if ctx.Team.tid = 1 then failwith "boom")
  with
  | exception Team.Parallel_failure [ (1, Failure m) ] ->
    Alcotest.(check string) "message" "boom" m
  | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "expected exception"

let test_team_aggregates_all_failures () =
  (* several threads raise in the same region: nothing is lost, and the
     aggregate lists them in tid order *)
  match
    Team.run ~nthreads:4 (fun ctx ->
        if ctx.Team.tid mod 2 = 1 then
          failwith (Printf.sprintf "boom-%d" ctx.Team.tid))
  with
  | exception Team.Parallel_failure fs ->
    Alcotest.(check (list int)) "tids in order" [ 1; 3 ] (List.map fst fs);
    List.iter
      (fun (tid, e) ->
        Alcotest.(check string)
          (Printf.sprintf "message %d" tid)
          (Printf.sprintf "boom-%d" tid)
          (match e with Failure m -> m | _ -> "?"))
      fs
  | _ -> Alcotest.fail "expected Parallel_failure"

let test_team_dynamic_chunks_disjoint () =
  let claimed = Array.make 40 0 in
  let lock = Mutex.create () in
  Team.run ~nthreads:4 (fun ctx ->
      let continue = ref true in
      while !continue do
        let s = ctx.Team.fetch_chunk ~instance:0 ~chunk:3 in
        if s >= 40 then continue := false
        else
          for i = s to min (s + 3) 40 - 1 do
            Mutex.lock lock;
            claimed.(i) <- claimed.(i) + 1;
            Mutex.unlock lock
          done
      done);
  checkb "each claimed once" true (Array.for_all (( = ) 1) claimed)

(* ---- persistent pool ---- *)

let thread_ids_for_run n =
  let ids = Array.make n (-1) in
  Team.run ~nthreads:n (fun ctx ->
      ids.(ctx.Team.tid) <- Thread.id (Thread.self ()));
  ids

let test_pool_worker_reuse () =
  let n = 3 in
  let first = thread_ids_for_run n in
  checkb "caller is tid 0" true
    (first.(0) = Thread.id (Thread.self ()));
  for _ = 1 to 5 do
    let again = thread_ids_for_run n in
    checkb "same workers serve successive teams" true (again = first)
  done;
  checkb "pool retains workers" true (Team.pool_size () >= n - 1);
  let reused = Telemetry.Counter.value Telemetry.Registry.pool_reuse_name in
  checkb "worker reuse counted" true (reused > 0)

let test_pool_exception_leaves_pool_usable () =
  (match
     Team.run ~nthreads:3 (fun ctx ->
         if ctx.Team.tid = 2 then failwith "pool-boom")
   with
  | exception Team.Parallel_failure [ (2, Failure m) ] ->
    Alcotest.(check string) "message" "pool-boom" m
  | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "expected exception");
  (* the same team must still execute correctly afterwards *)
  let hits = Atomic.make 0 in
  Team.run ~nthreads:3 (fun _ -> Atomic.incr hits);
  checki "pool usable after exception" 3 (Atomic.get hits)

let test_pool_barrier_stress () =
  (* hundreds of barrier generations with jittered bodies: any missed or
     double wakeup shows up as a phase-ordering violation *)
  let n = 4 and iters = 300 in
  let counter = Atomic.make 0 in
  let ok = Atomic.make true in
  Team.run ~nthreads:n (fun ctx ->
      for p = 1 to iters do
        (* jitter: stagger arrival order per phase and per thread *)
        let spin = (ctx.Team.tid * 37) + (p * 13) mod 211 in
        let acc = ref 0 in
        for i = 1 to spin do
          acc := !acc + i
        done;
        ignore !acc;
        Atomic.incr counter;
        ctx.Team.barrier ();
        if Atomic.get counter < p * n then Atomic.set ok false;
        ctx.Team.barrier ()
      done);
  checkb "no phase violation" true (Atomic.get ok);
  checki "all increments" (n * iters) (Atomic.get counter)

let test_pool_nested_region_falls_back () =
  (* a nested parallel region while the pool lock is held must fall back
     to spawning and still run to completion with correct semantics *)
  let total = Atomic.make 0 in
  Team.run ~nthreads:2 (fun _ ->
      Team.run ~nthreads:2 (fun _ -> Atomic.incr total));
  checki "nested teams all ran" 4 (Atomic.get total)

(* ---- watchdog, quarantine and fault sites ---- *)

let with_watchdog wd f =
  let prev = Team.current_watchdog () in
  Team.set_watchdog (Some wd);
  Fun.protect ~finally:(fun () -> Team.set_watchdog prev) f

let test_watchdog_warns_without_failing () =
  (* a slow thread inside the warn window trips the watchdog counter but
     the region still completes normally *)
  with_watchdog
    { Team.warn_s = 0.005; abandon_s = 5.0 }
    (fun () ->
      let before =
        Telemetry.Counter.value Telemetry.Registry.watchdog_trips_name
      in
      let hits = Atomic.make 0 in
      Team.run ~nthreads:2 (fun ctx ->
          if ctx.Team.tid = 1 then Thread.delay 0.03;
          Atomic.incr hits);
      checki "region completed" 2 (Atomic.get hits);
      checkb "watchdog tripped" true
        (Telemetry.Counter.value Telemetry.Registry.watchdog_trips_name
        > before))

let test_watchdog_abandons_stuck_worker () =
  (* a worker stuck past abandon_s is reported as Worker_stalled and
     quarantined; the pool respawns and stays usable — no deadlock *)
  with_watchdog
    { Team.warn_s = 0.005; abandon_s = 0.05 }
    (fun () ->
      let before =
        Telemetry.Counter.value Telemetry.Registry.pool_quarantined_name
      in
      (match
         Team.run ~nthreads:2 (fun ctx ->
             if ctx.Team.tid = 1 then Thread.delay 0.3)
       with
      | exception Team.Parallel_failure fs ->
        checkb "stall recorded" true
          (List.exists
             (fun (_, e) ->
               match e with Team.Worker_stalled _ -> true | _ -> false)
             fs)
      | () -> Alcotest.fail "expected abandonment of the stuck worker");
      checkb "worker quarantined" true
        (Telemetry.Counter.value Telemetry.Registry.pool_quarantined_name
        > before);
      (* a fresh worker replaces the quarantined one *)
      let hits = Atomic.make 0 in
      Team.run ~nthreads:2 (fun _ -> Atomic.incr hits);
      checki "pool recovered" 2 (Atomic.get hits))

let test_worker_death_transparent_fallback () =
  (* an injected worker death: the next region's job is stolen and run
     by the caller (same semantics), the dead worker is quarantined, and
     the pool respawns a replacement *)
  with_watchdog
    { Team.warn_s = 0.005; abandon_s = 0.05 }
    (fun () ->
      let before =
        Telemetry.Counter.value Telemetry.Registry.pool_quarantined_name
      in
      Fault.with_plan
        { Fault.seed = 1;
          rules =
            [ { Fault.rsite = "team.worker.loop"; rkind = Fault.Exn;
                rtrigger = Fault.Nth { first = 1; period = None } } ] }
        (fun () ->
          (* the worker dies right after finishing this region's job *)
          let hits = Atomic.make 0 in
          Team.run ~nthreads:2 (fun _ -> Atomic.incr hits);
          checki "region with dying worker" 2 (Atomic.get hits);
          (* its mailbox is dead: the caller steals the job, the region
             still completes with identical semantics *)
          let hits2 = Atomic.make 0 in
          Team.run ~nthreads:2 (fun _ -> Atomic.incr hits2);
          checki "stolen region completed" 2 (Atomic.get hits2));
      checkb "dead worker quarantined" true
        (Telemetry.Counter.value Telemetry.Registry.pool_quarantined_name
        > before);
      let hits3 = Atomic.make 0 in
      Team.run ~nthreads:2 (fun _ -> Atomic.incr hits3);
      checki "pool recovered after death" 2 (Atomic.get hits3))

let test_worker_exception_leaves_arenas_clean () =
  (* a worker raising mid-BRGEMM surfaces its error, and the pool still
     runs kernels after the failure *)
  let ker =
    Brgemm.compile (Brgemm.make_config ~beta:0.0 ~m:8 ~n:8 ~k:8 ())
  in
  let mk () = Tensor.view2d (Tensor.create Datatype.F32 [| 8; 8 |]) in
  Fault.with_plan
    { Fault.seed = 1;
      rules =
        [ { Fault.rsite = "tpp.brgemm.store"; rkind = Fault.Nan;
            rtrigger = Fault.Nth { first = 1; period = Some 1 } } ] }
    (fun () ->
      let prev = Tpp_check.mode () in
      Tpp_check.set_mode Tpp_check.Full;
      Fun.protect
        ~finally:(fun () -> Tpp_check.set_mode prev)
        (fun () ->
          match
            Team.run ~nthreads:2 (fun _ ->
                Brgemm.exec ker ~a:(mk ()) ~b:(mk ()) ~c:(mk ()))
          with
          | exception Team.Parallel_failure fs ->
            checkb "numeric errors surfaced" true
              (List.for_all
                 (fun (_, e) ->
                   match e with
                   | Tpp_check.Numeric_error _ -> true
                   | _ -> false)
                 fs)
          | () -> Alcotest.fail "expected poisoned kernels to raise"));
  (* kernels still run through the same pool *)
  let c = mk () in
  Team.run ~nthreads:2 (fun _ -> Brgemm.exec ker ~a:(mk ()) ~b:(mk ()) ~c)

let test_spec_parse_result_positions () =
  (match Spec_parser.parse_result "aB{" with
  | Error e ->
    checki "position of unterminated brace" 2 e.Spec_parser.pos;
    checkb "reason mentions brace" true
      (String.length e.Spec_parser.reason > 0)
  | Ok _ -> Alcotest.fail "expected parse error");
  (match Spec_parser.parse_result "ab?" with
  | Error e -> checki "position of bad char" 2 e.Spec_parser.pos
  | Ok _ -> Alcotest.fail "expected parse error");
  (match Spec_parser.parse_result "" with
  | Error e -> checki "empty spec at position 0" 0 e.Spec_parser.pos
  | Ok _ -> Alcotest.fail "expected parse error");
  checkb "valid spec parses" true
    (match Spec_parser.parse_result "bcaBCb" with Ok _ -> true | Error _ -> false)

let test_jit_fault_site_leaves_cache_clean () =
  (* an injected dispatch failure surfaces as Fault.Injected; once the
     plan clears, the same instantiation compiles and runs *)
  let specs =
    [ Loop_spec.make ~bound:4 ~step:1 ();
      Loop_spec.make ~bound:4 ~step:1 ();
      Loop_spec.make ~bound:4 ~step:1 () ]
  in
  Fault.with_plan
    { Fault.seed = 1;
      rules =
        [ { Fault.rsite = "parlooper.jit.compile"; rkind = Fault.Exn;
            rtrigger = Fault.Nth { first = 1; period = Some 1 } } ] }
    (fun () ->
      match Threaded_loop.create specs "abc" with
      | exception Fault.Injected _ -> ()
      | exception e ->
        Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
      | _ -> Alcotest.fail "expected injected dispatch failure");
  let l = Threaded_loop.create specs "abc" in
  let n = ref 0 in
  Threaded_loop.run l (fun _ -> incr n);
  checki "dispatch clean after fault cleared" 64 !n

let test_counters_growth_race () =
  (* many work-sharing instances claimed concurrently: the instance table
     grows under contention and every chunk is handed out exactly once *)
  let exercise runner =
    let n = 4 and instances = 64 in
    let claims = Array.init instances (fun _ -> Array.make n (-1)) in
    runner ~nthreads:n (fun ctx ->
        (* stagger the instance order per thread so growth is contended *)
        for k = 0 to instances - 1 do
          let inst = (k + (ctx.Team.tid * 17)) mod instances in
          let v = ctx.Team.fetch_chunk ~instance:inst ~chunk:1 in
          if v < n then claims.(inst).(v) <- ctx.Team.tid
        done);
    Array.iteri
      (fun i per ->
        checkb
          (Printf.sprintf "instance %d fully claimed" i)
          true
          (Array.for_all (fun t -> t >= 0) per))
      claims
  in
  exercise Team.run;
  exercise Team.run_spawn

(* ---- jit cache ---- *)

let test_jit_cache () =
  Threaded_loop.cache_clear ();
  let s = [ Loop_spec.make ~bound:4 ~step:1 () ] in
  let a = Threaded_loop.create s "a" in
  let b = Threaded_loop.create s "a" in
  checkb "cached object reused" true (a == b);
  let h, m = Threaded_loop.cache_stats () in
  checki "hits" 1 h;
  checki "misses" 1 m;
  let _ = Threaded_loop.create s "A" in
  let _, m2 = Threaded_loop.cache_stats () in
  checki "new spec = new miss" 2 m2;
  (* different bounds are a different cache key *)
  let _ = Threaded_loop.create [ Loop_spec.make ~bound:5 ~step:1 () ] "a" in
  let _, m3 = Threaded_loop.cache_stats () in
  checki "new bounds = new miss" 3 m3

let test_jit_cache_bounded () =
  Threaded_loop.cache_clear ();
  let old_cap = Threaded_loop.cache_get_capacity () in
  Threaded_loop.cache_set_capacity 4;
  for bound = 1 to 6 do
    ignore (Threaded_loop.create [ Loop_spec.make ~bound ~step:1 () ] "a")
  done;
  checki "size capped at capacity" 4 (Threaded_loop.cache_size ());
  (* the most recent entry survived eviction and is served from cache *)
  let s6 = [ Loop_spec.make ~bound:6 ~step:1 () ] in
  let x = Threaded_loop.create s6 "a" in
  let y = Threaded_loop.create s6 "a" in
  checkb "recent entry still cached" true (x == y);
  (* shrinking evicts immediately *)
  Threaded_loop.cache_set_capacity 2;
  checki "shrink evicts down" 2 (Threaded_loop.cache_size ());
  Threaded_loop.cache_set_capacity old_cap;
  Threaded_loop.cache_clear ()

let test_jit_cache_concurrent_domains () =
  (* several domains hammering create over more distinct keys than the
     LRU holds: every returned loop must still be valid, the size bound
     must hold under concurrent insert/evict, and the hit/miss counters
     must account for every lookup *)
  Threaded_loop.cache_clear ();
  let old_cap = Threaded_loop.cache_get_capacity () in
  Threaded_loop.cache_set_capacity 8;
  let domains = 4 and iters = 100 and distinct = 16 in
  let worker seed () =
    let ok = ref true in
    for i = 0 to iters - 1 do
      let bound = 1 + ((seed + i) mod distinct) in
      let l = Threaded_loop.create [ Loop_spec.make ~bound ~step:1 () ] "a" in
      let count = ref 0 in
      Threaded_loop.run l (fun _ -> incr count);
      if !count <> bound then ok := false
    done;
    !ok
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker (3 * d))) in
  let oks = List.map Domain.join ds in
  checkb "every loop iterated its own bounds" true (List.for_all Fun.id oks);
  checkb "size within capacity under churn" true
    (Threaded_loop.cache_size () <= 8);
  let h, m = Threaded_loop.cache_stats () in
  checki "hits + misses account for every create" (domains * iters) (h + m);
  checkb "each distinct key missed at least once" true (m >= distinct);
  Threaded_loop.cache_set_capacity old_cap;
  Threaded_loop.cache_clear ()

(* ---- telemetry integration ---- *)

let test_run_records_span_per_thread () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.enable ();
  let specs =
    [
      Loop_spec.make ~bound:8 ~step:1 ();
      Loop_spec.make ~bound:8 ~step:1 ();
      Loop_spec.make ~bound:8 ~step:1 ();
    ]
  in
  let t = Threaded_loop.create specs "BCa" in
  let hits = Atomic.make 0 in
  Threaded_loop.run ~nthreads:3 t (fun _ -> Atomic.incr hits);
  Telemetry.Registry.disable ();
  checki "all iterations ran" 512 (Atomic.get hits);
  let loop_spans =
    List.filter
      (fun s -> s.Telemetry.Span.cat = "loop")
      (Telemetry.Span.all ())
  in
  checki "one span per team thread" 3 (List.length loop_spans);
  let tids =
    List.sort_uniq compare
      (List.map (fun s -> s.Telemetry.Span.tid) loop_spans)
  in
  checkb "distinct tids 0..2" true (tids = [ 0; 1; 2 ]);
  List.iter
    (fun s ->
      checkb "span named after spec" true
        (s.Telemetry.Span.name = "BCa");
      checkb "barrier arg present" true
        (List.mem_assoc "barrier_wait_ns" s.Telemetry.Span.args))
    loop_spans;
  Telemetry.Registry.reset ()

let () =
  Alcotest.run "parlooper"
    [
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "parallel" `Quick test_parse_parallel;
          Alcotest.test_case "grid" `Quick test_parse_grid;
          Alcotest.test_case "directives" `Quick test_parse_directives;
          Alcotest.test_case "barrier" `Quick test_parse_barrier;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
        ] );
      ( "nest",
        [
          Alcotest.test_case "serial coverage" `Quick test_serial_coverage;
          Alcotest.test_case "iteration order" `Quick
            test_serial_ordering_innermost;
          Alcotest.test_case "collapse coverage" `Quick
            test_parallel_collapse_coverage;
          Alcotest.test_case "grid coverage" `Quick test_grid_coverage;
          Alcotest.test_case "grid thread count" `Quick test_grid_thread_count;
          Alcotest.test_case "disjoint partition" `Quick
            test_parallel_partition_disjoint;
          Alcotest.test_case "traced coverage" `Quick test_traced_matches_run;
          Alcotest.test_case "traced deterministic" `Quick
            test_traced_static_assignment_matches_run;
          Alcotest.test_case "body invocations" `Quick test_body_invocations;
          Alcotest.test_case "non-divisible bounds" `Quick
            test_non_divisible_bounds;
          Alcotest.test_case "init/term per thread" `Quick
            test_init_term_per_thread;
          Alcotest.test_case "barrier pipeline" `Quick test_barrier_pipeline;
          Alcotest.test_case "invalid specs" `Quick test_invalid_specs_rejected;
          qt prop_random_serial_specs_cover;
          qt prop_parallel_equals_serial;
        ] );
      ( "team",
        [
          Alcotest.test_case "barrier" `Quick test_team_barrier_sync;
          Alcotest.test_case "exceptions" `Quick test_team_exception_propagates;
          Alcotest.test_case "aggregates all failures" `Quick
            test_team_aggregates_all_failures;
          Alcotest.test_case "dynamic chunks" `Quick
            test_team_dynamic_chunks_disjoint;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker reuse" `Quick test_pool_worker_reuse;
          Alcotest.test_case "exception leaves pool usable" `Quick
            test_pool_exception_leaves_pool_usable;
          Alcotest.test_case "barrier stress" `Quick test_pool_barrier_stress;
          Alcotest.test_case "nested fallback" `Quick
            test_pool_nested_region_falls_back;
          Alcotest.test_case "watchdog warns" `Quick
            test_watchdog_warns_without_failing;
          Alcotest.test_case "watchdog abandons stuck worker" `Quick
            test_watchdog_abandons_stuck_worker;
          Alcotest.test_case "worker death transparent fallback" `Quick
            test_worker_death_transparent_fallback;
          Alcotest.test_case "worker exception leaves arenas clean" `Quick
            test_worker_exception_leaves_arenas_clean;
          Alcotest.test_case "spec parse_result positions" `Quick
            test_spec_parse_result_positions;
          Alcotest.test_case "jit fault site" `Quick
            test_jit_fault_site_leaves_cache_clean;
          Alcotest.test_case "counters growth race" `Quick
            test_counters_growth_race;
        ] );
      ( "cache",
        [
          Alcotest.test_case "jit cache" `Quick test_jit_cache;
          Alcotest.test_case "lru bound" `Quick test_jit_cache_bounded;
          Alcotest.test_case "concurrent domains" `Quick
            test_jit_cache_concurrent_domains;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "span per thread" `Quick
            test_run_records_span_per_thread;
        ] );
    ]
