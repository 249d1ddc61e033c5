(* Tests for lib/serve: continuous-batching determinism (batched decode
   bit-identical to sequential single-session replay), KV-pool recycling,
   bounded-queue backpressure, EDF admission ordering, load-generator
   reproducibility, the hardened failure paths (including the chaos
   harness on a lone scheduler, run as a 1-replica fleet), and online
   tuning. The driver tests run through the router (test_cluster). *)

open Fixtures

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let acquire_exn pool =
  match Serve.Kv_pool.acquire pool with
  | `Cache c -> c
  | `Denied -> Alcotest.fail "unexpected KV denial"

(* ---- continuous batching is bit-identical to sequential decoding ---- *)

let test_batched_equals_sequential () =
  clean ();
  let llm = make_llm () in
  let reqs =
    [
      mk_req ~prompt_len:5 ~new_tokens:4 0;
      mk_req ~prompt_len:3 ~new_tokens:1 1;  (* prefill-only request *)
      mk_req ~prompt_len:8 ~new_tokens:6 2;
      mk_req ~prompt_len:2 ~new_tokens:3 3;
      mk_req ~prompt_len:6 ~new_tokens:2 4;
    ]
  in
  (* interleave everything: batch big enough to run all five together *)
  let sched = Serve.Scheduler.create llm in
  List.iter
    (fun r -> checkb "accepted" true (Serve.Scheduler.submit sched ~now:0.0 r))
    reqs;
  Serve.Scheduler.drain sched ~now:frozen_now;
  checki "all finished" (List.length reqs)
    (List.length (Serve.Scheduler.finished sched));
  checki "token accounting" (4 + 1 + 6 + 3 + 2)
    (Serve.Scheduler.tokens_emitted sched);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb "state finished" true (r.Serve.Request.state = Serve.Request.Finished);
      let batched = Serve.Request.outputs r in
      let alone = replay_sequential llm r in
      checki "output count" (List.length alone) (List.length batched);
      List.iteri
        (fun i (b, a) ->
          checkb
            (Printf.sprintf "req %d token %d bit-identical" r.Serve.Request.id i)
            true (bits_equal b a))
        (List.combine batched alone))
    reqs

(* ---- KV-pool recycling ---- *)

let test_kv_pool_recycles () =
  clean ();
  let llm = make_llm () in
  let config =
    { Serve.Scheduler.default_config with Serve.Scheduler.max_batch = 1 }
  in
  let sched = Serve.Scheduler.create ~config llm in
  for id = 0 to 5 do
    ignore
      (Serve.Scheduler.submit sched ~now:0.0
         (mk_req ~prompt_len:4 ~new_tokens:3 id))
  done;
  Serve.Scheduler.drain sched ~now:frozen_now;
  let pool = Serve.Scheduler.pool sched in
  (* sequential sessions (batch = 1) must share one recycled cache *)
  checki "one cache allocated" 1 (Serve.Kv_pool.created pool);
  checki "five reuses" 5 (Serve.Kv_pool.reused pool);
  checki "nothing leaked" 0 (Serve.Kv_pool.in_use pool);
  checki "cache back in free list" 1 (Serve.Kv_pool.free_count pool);
  checkb "peak rows covers prompt+decode" true
    (Serve.Kv_pool.peak_rows pool >= 4 + 2);
  (* results are still correct through recycled caches *)
  List.iter
    (fun (r : Serve.Request.t) ->
      let alone = replay_sequential llm r in
      List.iter2
        (fun b a -> checkb "recycled cache bit-identical" true (bits_equal b a))
        (Serve.Request.outputs r) alone)
    (Serve.Scheduler.finished sched)

let test_kv_pool_acquire_release () =
  clean ();
  let llm = make_llm () in
  let pool = Serve.Kv_pool.create ~init_cap:8 ~max_free:2 llm in
  let c1 = acquire_exn pool in
  let c2 = acquire_exn pool in
  let c3 = acquire_exn pool in
  checki "three created" 3 (Serve.Kv_pool.created pool);
  checki "three in use" 3 (Serve.Kv_pool.in_use pool);
  Serve.Kv_pool.release pool c1;
  Serve.Kv_pool.release pool c2;
  Serve.Kv_pool.release pool c3;
  (* max_free = 2: the third release is dropped, not retained *)
  checki "free list bounded" 2 (Serve.Kv_pool.free_count pool);
  checki "none in use" 0 (Serve.Kv_pool.in_use pool);
  let c4 = acquire_exn pool in
  checki "reused, not created" 3 (Serve.Kv_pool.created pool);
  checki "reuse counted" 1 (Serve.Kv_pool.reused pool);
  checki "recycled cache rewound" 0 (Llm.cache_len c4)

(* ---- bounded queue backpressure ---- *)

let test_queue_rejection () =
  clean ();
  let llm = make_llm () in
  let config =
    { Serve.Scheduler.default_config with Serve.Scheduler.max_queue = 2 }
  in
  let sched = Serve.Scheduler.create ~config llm in
  let reqs =
    List.init 5 (fun id -> mk_req ~prompt_len:3 ~new_tokens:2 id)
  in
  let accepted =
    List.map (fun r -> Serve.Scheduler.submit sched ~now:0.0 r) reqs
  in
  Alcotest.(check (list bool))
    "first two accepted, rest rejected"
    [ true; true; false; false; false ]
    accepted;
  List.iteri
    (fun i (r : Serve.Request.t) ->
      checkb
        (Printf.sprintf "request %d state" i)
        true
        (r.Serve.Request.state
        = (if i < 2 then Serve.Request.Queued else Serve.Request.Rejected)))
    reqs;
  Serve.Scheduler.drain sched ~now:frozen_now;
  checki "only accepted requests finish" 2
    (List.length (Serve.Scheduler.finished sched));
  checki "ledger keeps everything" 5
    (List.length (Serve.Scheduler.requests sched))

(* ---- admission policy ---- *)

let test_edf_orders_by_deadline () =
  clean ();
  let llm = make_llm () in
  let config =
    { Serve.Scheduler.default_config with
      Serve.Scheduler.max_batch = 1;
      policy = Serve.Scheduler.Edf }
  in
  let sched = Serve.Scheduler.create ~config llm in
  (* submitted in deadline order 3.0, 1.0, 2.0 *)
  List.iter
    (fun (id, dl) ->
      ignore
        (Serve.Scheduler.submit sched ~now:0.0
           (mk_req ~deadline_s:dl ~prompt_len:3 ~new_tokens:2 id)))
    [ (0, 3.0); (1, 1.0); (2, 2.0) ];
  Serve.Scheduler.drain sched ~now:frozen_now;
  let order =
    List.map
      (fun (r : Serve.Request.t) -> r.Serve.Request.id)
      (Serve.Scheduler.finished sched)
  in
  Alcotest.(check (list int)) "earliest deadline first" [ 1; 2; 0 ] order;
  (* same workload under FCFS completes in arrival order *)
  let sched2 =
    Serve.Scheduler.create
      ~config:{ config with Serve.Scheduler.policy = Serve.Scheduler.Fcfs }
      llm
  in
  List.iteri
    (fun i dl ->
      ignore
        (Serve.Scheduler.submit sched2 ~now:(0.001 *. float_of_int i)
           (mk_req ~deadline_s:dl ~prompt_len:3 ~new_tokens:2 i)))
    [ 3.0; 1.0; 2.0 ];
  Serve.Scheduler.drain sched2 ~now:frozen_now;
  let order2 =
    List.map
      (fun (r : Serve.Request.t) -> r.Serve.Request.id)
      (Serve.Scheduler.finished sched2)
  in
  Alcotest.(check (list int)) "fcfs keeps arrival order" [ 0; 1; 2 ] order2

let test_policy_of_string () =
  checkb "fcfs" true
    (Serve.Scheduler.policy_of_string "fcfs" = Some Serve.Scheduler.Fcfs);
  checkb "deadline" true
    (Serve.Scheduler.policy_of_string "deadline" = Some Serve.Scheduler.Edf);
  checkb "edf alias" true
    (Serve.Scheduler.policy_of_string "edf" = Some Serve.Scheduler.Edf);
  checkb "unknown" true (Serve.Scheduler.policy_of_string "lifo" = None)

(* ---- load generator ---- *)

let test_load_gen_deterministic () =
  let cfg =
    { Serve.Load_gen.default with
      Serve.Load_gen.rate_hz = 100.0;
      duration_s = 1.0 }
  in
  let t1 = Serve.Load_gen.generate cfg ~vocab:64 in
  let t2 = Serve.Load_gen.generate cfg ~vocab:64 in
  checkb "non-empty" true (t1 <> []);
  checki "same length" (List.length t1) (List.length t2);
  List.iter2
    (fun (at1, (r1 : Serve.Request.t)) (at2, (r2 : Serve.Request.t)) ->
      checkb "same arrival" true (at1 = at2);
      checkb "same prompt" true (r1.Serve.Request.prompt = r2.Serve.Request.prompt);
      checkb "same gen ids" true (r1.Serve.Request.gen = r2.Serve.Request.gen))
    t1 t2;
  (* sorted arrivals, within the window, valid token ids *)
  let last = ref 0.0 in
  List.iter
    (fun (at, (r : Serve.Request.t)) ->
      checkb "sorted" true (at >= !last);
      last := at;
      checkb "inside window" true (at >= 0.0 && at < cfg.Serve.Load_gen.duration_s);
      Array.iter
        (fun id -> checkb "prompt id in vocab" true (id >= 0 && id < 64))
        r.Serve.Request.prompt;
      checkb "lengths in dist" true
        (let n = Array.length r.Serve.Request.prompt in
         n >= 4 && n <= 12))
    t1;
  (* a different seed produces a different trace *)
  let t3 =
    Serve.Load_gen.generate { cfg with Serve.Load_gen.seed = 43 } ~vocab:64
  in
  checkb "seed changes trace" true
    (List.map fst t1 <> List.map fst t3)

(* ---- hardened failure paths ---- *)

(* a request whose deadline budget is already gone is refused at submit:
   it could never meet its SLO, so admitting it would only burn compute *)
let test_submit_past_deadline_rejected () =
  clean ();
  let llm = make_llm () in
  let sched = Serve.Scheduler.create llm in
  let r = mk_req ~deadline_s:0.0 ~prompt_len:3 ~new_tokens:2 0 in
  checkb "refused" false (Serve.Scheduler.submit sched ~now:5.0 r);
  checkb "stamped rejected" true
    (r.Serve.Request.state = Serve.Request.Rejected);
  checkb "nothing queued" true (not (Serve.Scheduler.busy sched))

(* a session whose deadline passes mid-flight is cancelled and its KV
   cache goes back to the pool *)
let test_deadline_cancels_inflight () =
  clean ();
  let llm = make_llm () in
  let sched = Serve.Scheduler.create llm in
  let r = mk_req ~deadline_s:0.5 ~prompt_len:3 ~new_tokens:50 0 in
  checkb "accepted" true (Serve.Scheduler.submit sched ~now:0.0 r);
  let vnow = ref 0.0 in
  ignore (Serve.Scheduler.step sched ~now:(fun () -> !vnow));
  checkb "decoding after first step" true
    (r.Serve.Request.state = Serve.Request.Decoding);
  vnow := 1.0;
  (* past the 0.5 s deadline *)
  ignore (Serve.Scheduler.step sched ~now:(fun () -> !vnow));
  checkb "cancelled mid-flight" true
    (r.Serve.Request.state = Serve.Request.Cancelled);
  checki "KV returned to pool" 0
    (Serve.Kv_pool.in_use (Serve.Scheduler.pool sched));
  checkb "scheduler idle" true (not (Serve.Scheduler.busy sched))

(* a transient decode failure is retried after rewinding the KV cache;
   the recovered output must be bit-identical to a run that never saw
   the fault *)
let test_retry_transient_bit_identical () =
  clean ();
  let llm = make_llm () in
  let before = Telemetry.Counter.value Telemetry.Registry.fault_retries_name in
  let r = mk_req ~prompt_len:4 ~new_tokens:4 0 in
  Fault.with_plan
    { Fault.seed = 1;
      rules =
        [ { Fault.rsite = "serve.decode"; rkind = Fault.Exn;
            rtrigger = Fault.Nth { first = 2; period = None } } ] }
    (fun () ->
      let sched = Serve.Scheduler.create llm in
      checkb "accepted" true (Serve.Scheduler.submit sched ~now:0.0 r);
      Serve.Scheduler.drain sched ~now:frozen_now);
  checkb "finished despite fault" true
    (r.Serve.Request.state = Serve.Request.Finished);
  checkb "a retry happened" true
    (Telemetry.Counter.value Telemetry.Registry.fault_retries_name > before);
  List.iter2
    (fun b a -> checkb "recovered output bit-identical" true (bits_equal b a))
    (Serve.Request.outputs r) (replay_sequential llm r)

(* a fault that persists past max_retries fails the request without
   leaking its KV cache or wedging the scheduler *)
let test_retry_exhausted_fails_cleanly () =
  clean ();
  let llm = make_llm () in
  let good = mk_req ~prompt_len:3 ~new_tokens:2 0 in
  let doomed = mk_req ~prompt_len:3 ~new_tokens:2 1 in
  Fault.with_plan
    { Fault.seed = 1;
      rules =
        [ { Fault.rsite = "serve.prefill"; rkind = Fault.Exn;
            (* from invocation 2 every attempt fails: request 0 prefills
               clean, request 1 exhausts all its retries *)
            rtrigger = Fault.Nth { first = 2; period = Some 1 } } ] }
    (fun () ->
      let sched = Serve.Scheduler.create llm in
      checkb "good accepted" true (Serve.Scheduler.submit sched ~now:0.0 good);
      checkb "doomed accepted" true
        (Serve.Scheduler.submit sched ~now:0.0 doomed);
      Serve.Scheduler.drain sched ~now:frozen_now;
      checkb "good finished" true
        (good.Serve.Request.state = Serve.Request.Finished);
      checkb "doomed failed" true
        (doomed.Serve.Request.state = Serve.Request.Failed);
      checki "no KV leaked" 0
        (Serve.Kv_pool.in_use (Serve.Scheduler.pool sched)))

(* KV denial sheds load (shrinks the admission window) but every request
   still completes once the denial clears *)
let test_denial_sheds_then_recovers () =
  clean ();
  let llm = make_llm () in
  let before_shed = Telemetry.Counter.value Telemetry.Registry.fault_shed_name in
  let config =
    { Serve.Scheduler.default_config with Serve.Scheduler.max_batch = 2 }
  in
  let reqs = List.init 4 (fun id -> mk_req ~prompt_len:3 ~new_tokens:2 id) in
  Fault.with_plan
    { Fault.seed = 1;
      rules =
        [ { Fault.rsite = "serve.kv.acquire"; rkind = Fault.Deny;
            rtrigger = Fault.Nth { first = 2; period = Some 3 } } ] }
    (fun () ->
      let sched = Serve.Scheduler.create ~config llm in
      List.iter
        (fun r ->
          checkb "accepted" true (Serve.Scheduler.submit sched ~now:0.0 r))
        reqs;
      Serve.Scheduler.drain sched ~now:frozen_now;
      checkb "denials counted" true (Serve.Kv_pool.denied (Serve.Scheduler.pool sched) > 0));
  checkb "shed counted" true
    (Telemetry.Counter.value Telemetry.Registry.fault_shed_name > before_shed);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb "finished despite denials" true
        (r.Serve.Request.state = Serve.Request.Finished))
    reqs

(* ---- chaos on a lone scheduler: cells of the one chaos check ----

   A lone scheduler is chaos-tested as a 1-replica fleet, through the
   same {!Chaos_cell.check} as the cluster suite's fleet cells: the same
   seed repeats the fault schedule and the ledger, and with the flight
   recorder armed every ledgered request leaves a complete causal
   timeline. The full preset is the configuration [bench --chaos]
   records as its [chaos] baseline entry; the paged cell adds rewinds,
   spec-verify rounds and block-level COW, which must not truncate or
   reorder a request's span tree. *)

let solo_chaos_cells =
  let open Cluster.Chaos in
  [ ("chaos deterministic", { solo with requests = 8 });
    ("chaos trace conservation", solo);
    ( "chaos trace conservation (paged+spec)",
      { solo with
        requests = 12;
        scheduler =
          { solo.scheduler with
            Serve.Scheduler.paged = true; block_size = 16; num_blocks = 128;
            spec_k = 4 };
        shared_prefix = 12 } ) ]

(* ---- online tuning: hot-swapped specs stay bit-identical ---- *)

(* an online-tune scheduler must produce the same tokens as an untuned
   one: first arrivals decode on the default spec while the background
   domain tunes; once a tuned spec is published (gated on a bit-identity
   probe), later nest compiles pick it up through the resolver hook *)
let test_online_tune_bit_identical () =
  clean ();
  let llm = make_llm () in
  let reqs () =
    [
      mk_req ~prompt_len:5 ~new_tokens:4 0;
      mk_req ~prompt_len:8 ~new_tokens:6 1;
      mk_req ~prompt_len:3 ~new_tokens:5 2;
    ]
  in
  let run_wave sched rs =
    List.iter
      (fun r -> checkb "accepted" true (Serve.Scheduler.submit sched ~now:0.0 r))
      rs;
    Serve.Scheduler.drain sched ~now:frozen_now
  in
  (* reference: untuned scheduler, default specs everywhere *)
  let reference =
    let rs = reqs () in
    run_wave (Serve.Scheduler.create llm) rs;
    List.map Serve.Request.outputs rs
  in
  let config =
    { Serve.Scheduler.default_config with Serve.Scheduler.online_tune = true }
  in
  Fun.protect
    ~finally:(fun () -> Spec_cache.disable ())
    (fun () ->
      (* warm-up wave: first arrivals serve the default spec and enqueue
         their shapes for the background tuner *)
      run_wave (Serve.Scheduler.create ~config llm) (reqs ());
      checkb "tuner drained" true (Spec_cache.drain ~timeout_s:60.0);
      let mid = Spec_cache.stats () in
      checkb "background tunes ran" true (mid.Spec_cache.tunes > 0);
      checkb "at least one hot-swap" true (mid.Spec_cache.swaps > 0);
      (* post-swap wave: the same requests now compile against published
         specs and must reproduce the untuned outputs bit for bit *)
      let rs = reqs () in
      run_wave (Serve.Scheduler.create ~config llm) rs;
      checkb "tuned specs served from cache" true
        ((Spec_cache.stats ()).Spec_cache.hits > mid.Spec_cache.hits);
      List.iter2
        (fun ref_outs (r : Serve.Request.t) ->
          List.iter2
            (fun a b ->
              checkb "tuned decode bit-identical" true (bits_equal a b))
            ref_outs (Serve.Request.outputs r))
        reference rs)

let () =
  Alcotest.run "serve"
    [
      ( "determinism",
        [
          Alcotest.test_case "batched = sequential (bit-identical)" `Quick
            test_batched_equals_sequential;
        ] );
      ( "kv-pool",
        [
          Alcotest.test_case "scheduler recycles" `Quick test_kv_pool_recycles;
          Alcotest.test_case "acquire/release bounds" `Quick
            test_kv_pool_acquire_release;
        ] );
      ( "backpressure",
        [ Alcotest.test_case "bounded queue rejects" `Quick test_queue_rejection ]
      );
      ( "policy",
        [
          Alcotest.test_case "edf vs fcfs order" `Quick
            test_edf_orders_by_deadline;
          Alcotest.test_case "policy_of_string" `Quick test_policy_of_string;
        ] );
      ( "load-gen",
        [
          Alcotest.test_case "deterministic" `Quick test_load_gen_deterministic;
        ] );
      ( "fault-paths",
        [
          Alcotest.test_case "past-deadline submit refused" `Quick
            test_submit_past_deadline_rejected;
          Alcotest.test_case "deadline cancels in-flight" `Quick
            test_deadline_cancels_inflight;
          Alcotest.test_case "transient retry bit-identical" `Quick
            test_retry_transient_bit_identical;
          Alcotest.test_case "exhausted retries fail cleanly" `Quick
            test_retry_exhausted_fails_cleanly;
          Alcotest.test_case "denial sheds then recovers" `Quick
            test_denial_sheds_then_recovers;
        ]
        @ List.map
            (fun (name, config) ->
              Alcotest.test_case name `Quick (Chaos_cell.check config))
            solo_chaos_cells );
      ( "online-tune",
        [
          Alcotest.test_case "hot-swap bit-identical" `Quick
            test_online_tune_bit_identical;
        ] );
    ]
