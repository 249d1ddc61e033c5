(* Tests for lib/cluster: tensor-parallel sharding bit-identity, the
   chaos harness over a table of fleet configs (1 to 3 replicas, shards,
   disaggregation, paged + speculative + shared prefix, quarantine and
   hard kill), the open-loop driver and its live-metrics stream across
   fleet sizes, per-replica EDF ordering through the router, exactly-once
   KV handoff release, and disaggregated-decode identity. *)

open Fixtures

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---- tensor-parallel sharding is bit-identical to unsharded ---- *)

(* Three inputs, each against the unsharded model: a prefill and one-row
   decodes over a contiguous cache; the same tokens over a paged cache
   of 8-token blocks, so the gather crosses a block; and a 3-row extend
   after the prefill, the shape of a speculative verification. *)
let test_tp_bit_identity () =
  clean ();
  let llm = make_llm () in
  let sharded =
    match Llm.shard llm ~shards:2 with
    | Ok t -> t
    | Error e -> Alcotest.fail ("shard: " ^ e)
  in
  checki "shards" 2 (Llm.shards sharded);
  let prompt = [| 3; 11; 7; 29; 1 |] in
  let gen = [| 5; 17; 23; 2 |] in
  (* unsharded reference *)
  let c0 = Llm.new_cache llm in
  let ref_first = Llm.prefill llm c0 (Llm.embed llm prompt) in
  let ref_steps =
    Array.map (fun tok -> Llm.decode_step llm c0 (Llm.embed llm [| tok |])) gen
  in
  (* sharded runs over the same tokens *)
  let paged () =
    let cfg = Llm.config llm in
    Llm.new_paged_cache sharded
      (Kv.Block_manager.create ~block_size:8 ~num_blocks:4
         ~layers:cfg.Llm.layers ~hidden:cfg.Llm.hidden ())
  in
  List.iter
    (fun (store, c1) ->
      let tp_first = Llm.prefill sharded c1 (Llm.embed llm prompt) in
      checkb (store ^ " prefill bit-identical") true
        (bits_equal ref_first tp_first);
      Array.iteri
        (fun i tok ->
          let got = Llm.decode_step sharded c1 (Llm.embed llm [| tok |]) in
          checkb
            (Printf.sprintf "%s decode step %d bit-identical" store i)
            true
            (bits_equal ref_steps.(i) got))
        gen;
      checki (store ^ " cache lengths agree") (Llm.cache_len c0)
        (Llm.cache_len c1))
    [ ("contiguous", Llm.new_cache llm); ("paged", paged ()) ];
  let verify = Llm.embed llm (Array.sub gen 0 3) in
  let extend_after_prefill model =
    let c = Llm.new_cache llm in
    ignore (Llm.prefill model c (Llm.embed llm prompt));
    Llm.extend model c verify
  in
  checkb "3-row extend bit-identical" true
    (bits_equal (extend_after_prefill llm) (extend_after_prefill sharded))

let test_tp_plan_rejects_bad_split () =
  clean ();
  let llm = make_llm () in
  (* tiny has 2 heads: 3 shards cannot split them *)
  checkb "3-way split rejected" true
    (match Llm.shard llm ~shards:3 with Ok _ -> false | Error _ -> true);
  checkb "0 shards rejected" true
    (match Llm.shard llm ~shards:0 with Ok _ -> false | Error _ -> true);
  let config =
    { Cluster.Router.default_config with Cluster.Router.shards = 0 }
  in
  checkb "router with 0 shards rejected" true
    (match Cluster.Router.create ~config llm with
    | Ok _ -> false
    | Error _ -> true)

(* ---- chaos: a table of cells for the one chaos check ----

   Each cell runs {!Chaos_cell.check}. The serve suite's fault-paths
   group runs the same check over three more lone-scheduler cells. *)

let chaos_cells =
  let open Cluster.Chaos in
  let paged ?(spec_k = 0) (s : Serve.Scheduler.config) =
    { s with Serve.Scheduler.paged = true; block_size = 8; num_blocks = 64;
      spec_k }
  in
  [ ( "paged serve chaos conserves arena",
      { solo with
        requests = 12; scheduler = paged ~spec_k:3 solo.scheduler;
        shared_prefix = 8 } );
    ( "paged cluster chaos conserves arena",
      { default with
        requests = 12; replicas = 2;
        scheduler = paged ~spec_k:3 default.scheduler; shared_prefix = 8 } );
    ( "disaggregated",
      { default with requests = 16; replicas = 2; disaggregate = true } );
    ( "paged disaggregated handoff",
      { default with
        requests = 12; replicas = 2; disaggregate = true;
        scheduler = paged default.scheduler; shared_prefix = 8 } );
    ("conservation + quarantine", { default with requests = 16 });
    ("sharded", { default with requests = 12; shards = 2 });
    ( "sharded paged+spec",
      { default with
        requests = 12; shards = 2;
        scheduler = paged ~spec_k:3 default.scheduler; shared_prefix = 8 } );
    ("hard kill", hard_kill) ]

(* ---- open-loop driver across fleet sizes ----

   The driver runs a lone scheduler as a 1-replica fleet, so the same
   tests cover one and two replicas: the fleet-merged summary must agree
   with the per-replica cuts it was merged from. *)

let fleet_sizes = [ 1; 2 ]

(* a short Poisson trace driven through a [replicas]-wide router *)
let drive_fleet ?live ~replicas ~duration_s () =
  let llm = make_llm () in
  let cfg =
    { Serve.Load_gen.default with
      Serve.Load_gen.rate_hz = 50.0;
      duration_s;
      deadline_s = 30.0 }
  in
  let trace = Serve.Load_gen.generate cfg ~vocab:Llm.tiny.Llm.vocab in
  let config = { Cluster.Router.default_config with Cluster.Router.replicas } in
  match Cluster.Router.create ~config llm with
  | Error e -> Alcotest.fail ("router: " ^ e)
  | Ok router -> (trace, Cluster.Driver.run ?live router trace)

let test_driver_end_to_end () =
  List.iter
    (fun replicas ->
      clean ();
      Telemetry.Registry.enable ();
      let trace, o = drive_fleet ~replicas ~duration_s:0.3 () in
      Telemetry.Registry.disable ();
      let s = o.Cluster.Driver.summary in
      checki "everything submitted" (List.length trace)
        s.Serve.Metrics.submitted;
      checki "everything completed"
        (s.Serve.Metrics.submitted - s.Serve.Metrics.rejected)
        s.Serve.Metrics.completed;
      checki "ledger matches" (List.length trace)
        (List.length o.Cluster.Driver.requests);
      checkb "tokens flowed" true (s.Serve.Metrics.tokens > 0);
      checkb "throughput positive" true (s.Serve.Metrics.tokens_per_s > 0.0);
      checkb "ttft p50 positive" true
        (s.Serve.Metrics.ttft_ms.Serve.Metrics.p50 > 0.0);
      checkb "percentiles ordered" true
        (s.Serve.Metrics.ttft_ms.Serve.Metrics.p50
        <= s.Serve.Metrics.ttft_ms.Serve.Metrics.p99);
      checkb "goodput bounded by completed" true
        (s.Serve.Metrics.goodput <= s.Serve.Metrics.completed);
      checkb "summary prints" true
        (String.length (Serve.Metrics.summary_to_string s) > 0);
      (* the fleet rollup is merged from every replica, never one
         replica's view *)
      let per = o.Cluster.Driver.per_replica in
      checki "one cut per replica" replicas (List.length per);
      let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 per in
      checki "replica completions sum to the fleet's"
        s.Serve.Metrics.completed
        (sum (fun r -> r.Serve.Metrics.completed));
      checki "replica tokens sum to the fleet's" s.Serve.Metrics.tokens
        (sum (fun r -> r.Serve.Metrics.tokens));
      checkb "fleet ttft p99 covers every replica's" true
        (List.for_all
           (fun (_, r) ->
             r.Serve.Metrics.ttft_ms.Serve.Metrics.p99
             <= s.Serve.Metrics.ttft_ms.Serve.Metrics.p99)
           per);
      clean ())
    fleet_sizes

(* ---- live metrics plane ---- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* pull the integer value of ["name":<int>] out of one JSONL line *)
let json_int_field line name =
  let key = "\"" ^ name ^ "\":" in
  let kl = String.length key and ll = String.length line in
  let rec find i =
    if i + kl > ll then None
    else if String.sub line i kl = key then begin
      let j = ref (i + kl) in
      let start = !j in
      if !j < ll && line.[!j] = '-' then incr j;
      while !j < ll && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      if !j > start then int_of_string_opt (String.sub line start (!j - start))
      else None
    end
    else find (i + 1)
  in
  find 0

let test_driver_live_metrics () =
  List.iter
    (fun replicas ->
      clean ();
      Telemetry.Registry.enable ();
      let path = Filename.temp_file "parlooper-live" ".jsonl" in
      let oc = open_out path in
      let _, o =
        drive_fleet
          ~live:{ Cluster.Driver.every_s = 0.05; out = oc }
          ~replicas ~duration_s:0.4 ()
      in
      close_out oc;
      Telemetry.Registry.disable ();
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Sys.remove path;
      checkb "at least two snapshots" true (List.length lines >= 2);
      checki "snapshot count matches outcome" o.Cluster.Driver.snapshots
        (List.length lines);
      List.iteri
        (fun i line ->
          (try Telemetry.Json_check.validate line with
          | Telemetry.Json_check.Bad_json m ->
            Alcotest.failf "snapshot %d invalid JSON: %s" i m);
          if i > 0 then
            checkb
              (Printf.sprintf "snapshot %d carries deltas" i)
              true
              (contains ~needle:"\"deltas\"" line
              && contains ~needle:"\"rates\"" line))
        lines;
      (* counters are monotonic across the stream *)
      let submitted_series =
        List.filter_map
          (fun l -> json_int_field l Serve.Metrics.submitted_name)
          lines
      in
      checki "every snapshot reports the counter" (List.length lines)
        (List.length submitted_series);
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      checkb "submitted counter is monotonic" true (monotone submitted_series);
      (* the final snapshot agrees with the end-of-run state *)
      let last = List.nth lines (List.length lines - 1) in
      let s = o.Cluster.Driver.summary in
      (match json_int_field last Serve.Metrics.completed_name with
      | Some v ->
        checki "final completed matches summary" s.Serve.Metrics.completed v
      | None -> Alcotest.fail "final snapshot missing completed counter");
      (match json_int_field last Serve.Metrics.kv_in_use_name with
      | Some v -> checki "final kv_in_use gauge drained" 0 v
      | None -> Alcotest.fail "final snapshot missing kv_in_use gauge");
      (* the same values flow into Report.to_json: the gauges section must
         agree with the stream's last line *)
      let j = Telemetry.Report.to_json ~peak_gflops:1.0 ~mem_bw_gbs:1.0 () in
      checkb "report has gauges section" true (contains ~needle:"\"gauges\"" j);
      (match json_int_field j Serve.Metrics.kv_free_name with
      | Some rv -> (
        match json_int_field last Serve.Metrics.kv_free_name with
        | Some lv -> checki "kv_free gauge agrees with report" rv lv
        | None -> Alcotest.fail "final snapshot missing kv_free gauge")
      | None -> Alcotest.fail "report missing kv_free gauge");
      clean ())
    fleet_sizes

(* ---- quarantine conservation outside chaos: no request lost ---- *)

let test_quarantine_reroutes_queued () =
  clean ();
  Telemetry.Registry.enable ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.max_batch = 1; nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* round-robin: even ids land on replica 0, odd ids on replica 1 *)
  for id = 0 to 5 do
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:3 ~new_tokens:2 id))
  done;
  Cluster.Router.quarantine router 1;
  checkb "replica 1 quarantined" true (Cluster.Router.is_quarantined router 1);
  (* re-routes resubmit without re-bumping serve.submitted: distinct
     requests only, with the moves tallied separately *)
  checki "submitted counts distinct requests" 6
    (Telemetry.Counter.value Serve.Metrics.submitted_name);
  checki "re-routes tallied as resubmissions"
    (Telemetry.Counter.value Cluster.Router.rerouted_name)
    (Telemetry.Counter.value Cluster.Router.resubmitted_name);
  Cluster.Router.drain router ~now:frozen_now;
  let reqs = Cluster.Router.requests router in
  checki "ledger intact" 6 (List.length reqs);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb
        (Printf.sprintf "request %d finished" r.Serve.Request.id)
        true
        (r.Serve.Request.state = Serve.Request.Finished))
    reqs;
  (* every request decoded bit-identically despite the migration *)
  List.iter
    (fun (r : Serve.Request.t) ->
      let alone = replay_sequential llm r in
      let got = Serve.Request.outputs r in
      checki "output count" (List.length alone) (List.length got);
      List.iter2
        (fun a b -> checkb "bit-identical" true (bits_equal a b))
        alone got)
    reqs;
  List.iter
    (fun p -> checki "pool drained" 0 (Serve.Kv_pool.in_use p))
    (Cluster.Router.pools router)

(* ---- hard kill: in-flight sessions migrate and finish identically ---- *)

let test_hard_fail_migrates_inflight () =
  clean ();
  Telemetry.Registry.enable ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.max_batch = 4; nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* round-robin: odd ids land on replica 1 *)
  for id = 0 to 5 do
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:3 ~new_tokens:8 id))
  done;
  (* a few steps put replica 1's sessions mid-decode, then kill it *)
  for _ = 1 to 3 do
    ignore (Cluster.Router.step router ~now:frozen_now)
  done;
  let victim = (Cluster.Router.schedulers router).(1) in
  checkb "victim has in-flight sessions" true
    (Serve.Scheduler.active_count victim > 0);
  Cluster.Router.hard_fail router ~now:0.0 1;
  checkb "victim quarantined" true (Cluster.Router.is_quarantined router 1);
  let started =
    Telemetry.Counter.value Cluster.Router.migrations_started_name
  in
  checkb "migrations started" true (started > 0);
  Cluster.Router.drain router ~now:frozen_now;
  checki "migration channel drained" 0 (Cluster.Router.migration_depth router);
  checki "all migrations completed" started
    (Telemetry.Counter.value Cluster.Router.migrations_completed_name);
  let reqs = Cluster.Router.requests router in
  checki "ledger intact" 6 (List.length reqs);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb
        (Printf.sprintf "request %d finished" r.Serve.Request.id)
        true
        (r.Serve.Request.state = Serve.Request.Finished);
      (* migrated decodes are bit-identical to a solo replay *)
      let alone = replay_sequential llm r in
      let got = Serve.Request.outputs r in
      checki "output count" (List.length alone) (List.length got);
      List.iter2
        (fun a b -> checkb "bit-identical" true (bits_equal a b))
        alone got)
    reqs;
  List.iter
    (fun p -> checki "pool drained" 0 (Serve.Kv_pool.in_use p))
    (Cluster.Router.pools router);
  checki "no double release" 0
    (Telemetry.Counter.value Cluster.Kv_handoff.double_release_name)

(* ---- unquarantine is probe-gated and the replica takes work again ---- *)

let test_unquarantine_probe_rejoin () =
  clean ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.max_batch = 2; nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  for id = 0 to 3 do
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:3 ~new_tokens:2 id))
  done;
  Cluster.Router.hard_fail router ~now:0.0 1;
  Cluster.Router.drain router ~now:frozen_now;
  checkb "still quarantined after drain" true
    (Cluster.Router.is_quarantined router 1);
  checkb "probe passes, replica rejoins" true
    (Cluster.Router.unquarantine router 1);
  checkb "no longer quarantined" true
    (not (Cluster.Router.is_quarantined router 1));
  checkb "rejoin is idempotent" true (Cluster.Router.unquarantine router 1);
  (* round-robin again: odd ids must land on the rejoined replica *)
  for id = 4 to 7 do
    checkb "accepted after rejoin" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:3 ~new_tokens:2 id))
  done;
  checkb "rejoined replica took work" true
    (Serve.Scheduler.requests (Cluster.Router.schedulers router).(1)
     |> List.exists (fun (r : Serve.Request.t) -> r.Serve.Request.id >= 4));
  Cluster.Router.drain router ~now:frozen_now;
  let reqs = Cluster.Router.requests router in
  checki "ledger conserved across kill + rejoin" 8 (List.length reqs);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb "finished" true (r.Serve.Request.state = Serve.Request.Finished))
    reqs;
  List.iter
    (fun p -> checki "pool drained" 0 (Serve.Kv_pool.in_use p))
    (Cluster.Router.pools router)

(* ---- EDF ordering holds per replica behind the router ---- *)

let test_edf_per_replica () =
  clean ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.policy = Serve.Scheduler.Edf;
          max_batch = 1;
          nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* submit with descending deadlines so FCFS order would be wrong *)
  let n = 8 in
  for id = 0 to n - 1 do
    let deadline_s = 1000.0 -. (10.0 *. float_of_int id) in
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~deadline_s ~prompt_len:2 ~new_tokens:1 id))
  done;
  Cluster.Router.drain router ~now:frozen_now;
  Array.iter
    (fun sched ->
      let fin = Serve.Scheduler.finished sched in
      checkb "replica served something" true (fin <> []);
      let deadlines =
        List.map (fun r -> Serve.Request.deadline_abs r) fin
      in
      checkb "finished in EDF order" true
        (List.sort compare deadlines = deadlines))
    (Cluster.Router.schedulers router)

(* ---- KV handoff releases exactly once ---- *)

let test_handoff_exactly_once () =
  clean ();
  Telemetry.Registry.enable ();
  let llm = make_llm () in
  let h = Cluster.Kv_handoff.create ~cap:2 () in
  let cache = Llm.new_cache llm in
  let released = ref 0 in
  let req = mk_req ~prompt_len:2 ~new_tokens:2 0 in
  (match
     Cluster.Kv_handoff.push h ~req ~cache ~release:(fun _ -> incr released)
   with
  | `Ok -> ()
  | `Full -> Alcotest.fail "push refused on empty channel");
  checki "depth" 1 (Cluster.Kv_handoff.depth h);
  let e =
    match Cluster.Kv_handoff.pop h with
    | Some e -> e
    | None -> Alcotest.fail "pop on non-empty channel"
  in
  checki "depth after pop" 0 (Cluster.Kv_handoff.depth h);
  let before =
    Telemetry.Counter.value Cluster.Kv_handoff.double_release_name
  in
  e.Cluster.Kv_handoff.release e.Cluster.Kv_handoff.cache;
  e.Cluster.Kv_handoff.release e.Cluster.Kv_handoff.cache;
  e.Cluster.Kv_handoff.release e.Cluster.Kv_handoff.cache;
  checki "released exactly once" 1 !released;
  checki "double releases counted" 2
    (Telemetry.Counter.value Cluster.Kv_handoff.double_release_name - before);
  (* capacity bound: a full channel refuses and leaves ownership with
     the caller *)
  let push_ok () =
    Cluster.Kv_handoff.push h
      ~req:(mk_req ~prompt_len:2 ~new_tokens:2 1)
      ~cache:(Llm.new_cache llm)
      ~release:(fun _ -> ())
  in
  checkb "1st fits" true (push_ok () = `Ok);
  checkb "2nd fits" true (push_ok () = `Ok);
  checkb "3rd refused" true (push_ok () = `Full)

(* ---- disaggregated serving is bit-identical to solo decoding ---- *)

let test_disaggregated_bit_identity () =
  clean ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      disaggregate = true;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.max_batch = 2; nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checkb "prefiller present" true (Cluster.Router.prefiller router <> None);
  for id = 0 to 5 do
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:(2 + id) ~new_tokens:3 id))
  done;
  Cluster.Router.drain router ~now:frozen_now;
  let reqs = Cluster.Router.requests router in
  checki "all requests tracked" 6 (List.length reqs);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb "finished" true (r.Serve.Request.state = Serve.Request.Finished);
      let alone = replay_sequential llm r in
      let got = Serve.Request.outputs r in
      checki "output count" (List.length alone) (List.length got);
      List.iter2
        (fun a b -> checkb "bit-identical" true (bits_equal a b))
        alone got)
    reqs;
  checki "handoff drained" 0 (Cluster.Router.handoff_depth router);
  List.iter
    (fun p -> checki "pool drained" 0 (Serve.Kv_pool.in_use p))
    (Cluster.Router.pools router)

(* ---- placement parsing round-trips ---- *)

let test_placement_of_string () =
  clean ();
  let open Cluster.Router in
  checkb "rr" true (placement_of_string "rr" = Some Round_robin);
  checkb "round-robin" true
    (placement_of_string "round-robin" = Some Round_robin);
  checkb "jsq" true (placement_of_string "jsq" = Some Jsq);
  checkb "deadline" true (placement_of_string "deadline" = Some Deadline_aware);
  checkb "junk" true (placement_of_string "nope" = None);
  List.iter
    (fun p ->
      checkb "round-trip" true (placement_of_string (placement_name p) = Some p))
    [ Round_robin; Jsq; Deadline_aware ]

let () =
  Alcotest.run "cluster"
    [
      ( "sharding",
        [
          Alcotest.test_case "tp = unsharded (bit-identical)" `Quick
            test_tp_bit_identity;
          Alcotest.test_case "tp_plan rejects bad split" `Quick
            test_tp_plan_rejects_bad_split;
        ] );
      ( "chaos",
        List.map
          (fun (name, config) ->
            Alcotest.test_case name `Quick (Chaos_cell.check config))
          chaos_cells );
      ( "driver",
        [
          Alcotest.test_case "end-to-end" `Quick test_driver_end_to_end;
          Alcotest.test_case "live metrics stream" `Quick
            test_driver_live_metrics;
        ] );
      ( "router",
        [
          Alcotest.test_case "quarantine re-routes queued" `Quick
            test_quarantine_reroutes_queued;
          Alcotest.test_case "hard fail migrates in-flight" `Quick
            test_hard_fail_migrates_inflight;
          Alcotest.test_case "unquarantine probe-gated rejoin" `Quick
            test_unquarantine_probe_rejoin;
          Alcotest.test_case "EDF order per replica" `Quick
            test_edf_per_replica;
          Alcotest.test_case "placement_of_string" `Quick
            test_placement_of_string;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "releases exactly once" `Quick
            test_handoff_exactly_once;
          Alcotest.test_case "disaggregated bit-identity" `Quick
            test_disaggregated_bit_identity;
        ] );
    ]
