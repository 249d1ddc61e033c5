(* Chaos harness: drive the router fleet under a seeded fault plan and
   check that the hardened stack keeps its promises. A lone scheduler is
   a 1-replica fleet: there is one harness and one oracle, whatever the
   replica count. Invariants:

     - liveness: the fleet drains within the step budget;
     - router-ledger conservation: every routed request reaches a
       terminal state; finished + rejected + cancelled + failed =
       submitted; every id appears exactly once in the router ledger and
       in at most one decode replica's ledger (quarantine re-routes move
       requests, never duplicate them);
     - no double serve: no request carries more outputs than its
       [new_tokens]; finished requests carry exactly [new_tokens];
     - quarantine isolation: the quarantined replica's ledger does not
       grow after the quarantine (no new routes, no adoptions);
     - fleet drain: every KV pool (decode replicas + prefill tier) reports
       zero caches in use, every paged arena is conserved, and the
       handoff and migration channels are empty;
     - exactly-once handoff release: the double-release counter stays 0;
     - bit-identity: every finished request's outputs equal a solo
       fault-free sequential greedy replay on the same model — retries,
       rewinds, worker steals, sharding, placement, disaggregation and
       migration must be semantically invisible.

   The drive is virtual-clock and fault triggers are invocation-count
   based, so a seed reproduces the same schedule anywhere. *)

type config = {
  seed : int;
  requests : int;
  replicas : int;
  shards : int;
  disaggregate : bool;
  placement : Router.placement;
  prompt_len : Serve.Load_gen.dist;
  new_tokens : Serve.Load_gen.dist;
  shared_prefix : int;
      (* tokens of a common prefix prepended to every prompt (0 = none):
         with a paged scheduler config this exercises prefix sharing and
         COW under faults *)
  arrival_gap_s : float;  (* virtual seconds between arrivals *)
  deadline_s : float;
  dt_s : float;  (* virtual seconds per drive step *)
  scheduler : Serve.Scheduler.config;
  handoff_cap : int;
  quarantine_step : int;
      (* drive step at which the quarantine fires; -1 = never *)
  quarantine_replica : int;
  hard_kill_step : int;
      (* drive step at which a replica hard-fails (in-flight sessions
         migrate); -1 = never *)
  hard_kill_replica : int;
  plan : Fault.plan option;  (* None = default_plan ~replicas seed *)
  watchdog : Team.watchdog option;
  max_steps : int;
}

let default =
  { seed = 42;
    requests = 24;
    replicas = 3;
    shards = 1;
    disaggregate = false;
    placement = Router.Round_robin;
    prompt_len = Serve.Load_gen.Uniform (2, 6);
    new_tokens = Serve.Load_gen.Uniform (1, 5);
    shared_prefix = 0;
    arrival_gap_s = 0.01;
    deadline_s = Float.infinity;
    dt_s = 0.002;
    scheduler =
      { Serve.Scheduler.default_config with
        max_batch = 4; nthreads = Some 1; kv_cap = 8; max_retries = 4;
        check_numerics = true };
    handoff_cap = 8;
    quarantine_step = 40;
    quarantine_replica = 1;
    hard_kill_step = -1;
    hard_kill_replica = 1;
    plan = None;
    watchdog = None;
    max_steps = 50_000 }

(* A lone scheduler over two pool threads, so the worker-level fault
   sites and the watchdog have a team to act on; the stall durations in
   the plan and the watchdog budget keep wall time at ~2 s. *)
let solo =
  { default with
    replicas = 1;
    scheduler = { default.scheduler with nthreads = Some 2 };
    quarantine_step = -1;
    quarantine_replica = 0;
    hard_kill_replica = 0;
    watchdog = Some { Team.warn_s = 0.005; abandon_s = 0.05 } }

(* Hard-kill scenario: one arrival per drive step and longer decodes so
   the victim has sessions mid-decode when it dies — migration, not
   drain-in-place, is what the invariants then exercise (the quarantine
   path is disabled). *)
let hard_kill =
  { default with
    new_tokens = Serve.Load_gen.Uniform (8, 14);
    arrival_gap_s = default.dt_s;
    quarantine_step = -1;
    hard_kill_step = 12;
    hard_kill_replica = 1 }

(* Solo rules: one per fault class a lone scheduler reaches. Periods are
   calibrated against how often each site fires per serving step on
   [Llm.tiny]: a single prefill or decode attempt runs ~1000 BRGEMM
   stores, ~15 JIT dispatches and ~30 worker bodies, so inner-site
   periods sit well above one attempt's invocation count — a retried
   step then sees a clean window and the fault behaves as a transient
   (the point of retry-with-rewind). The serve-level sites fire once per
   attempt, so small periods are fine there. Co-prime periods keep fault
   combinations varied.

   Fleet rules: router/handoff/migration sites plus the serve-level
   transients, which a disaggregated fleet's prefill tier fires too; the
   periods keep each fault a transient so the conservation ledger — not
   wholesale failure — is what gets exercised. *)
let default_plan ~replicas seed =
  let nth first period = Fault.Nth { first; period = Some period } in
  let rule rsite rkind rtrigger = { Fault.rsite; rkind; rtrigger } in
  { Fault.seed;
    rules =
      (if replicas = 1 then
         [ rule "serve.prefill" Fault.Exn (nth 2 9);
           rule "serve.decode" Fault.Exn (nth 3 11);
           rule "serve.kv.acquire" Fault.Deny (nth 2 7);
           (* paged-KV sites fire only when the pool is paged. Block
              acquires run once per block per ensure, so the periods sit
              above one attempt's worth of acquires. *)
           rule "kv.page.acquire" Fault.Deny (nth 5 13);
           rule "kv.cow.copy" Fault.Exn (nth 2 5);
           rule "parlooper.jit.compile" Fault.Exn (nth 101 1013);
           rule "tpp.brgemm.store" Fault.Nan (nth 137 9973);
           rule "team.worker.body" Fault.Exn (nth 47 499);
           rule "team.worker.body" (Fault.Stall 0.02) (nth 160 1601);
           rule "team.worker.loop" Fault.Exn (nth 31 997) ]
       else
         [ rule "serve.prefill" Fault.Exn (nth 3 9);
           rule "serve.decode" Fault.Exn (nth 4 11);
           rule "serve.kv.acquire" Fault.Deny (nth 3 13);
           rule "cluster.router.route" Fault.Deny (nth 7 19);
           rule "cluster.router.route" Fault.Exn (nth 11 23);
           rule "cluster.handoff.push" Fault.Deny (nth 4 17);
           (* paged-KV sites — inert unless the scheduler config is paged *)
           rule "kv.page.acquire" Fault.Deny (nth 6 17);
           rule "kv.cow.copy" Fault.Exn (nth 2 7);
           (* migration sites — inert unless a hard kill fires mid-run. An
              export Exn fails that session in place (still conserved); an
              import Deny forces the router to retry the next replica. *)
           rule "cluster.migrate.export" Fault.Exn (nth 4 9);
           rule "cluster.migrate.import" Fault.Deny (nth 2 5) ]) }

let plan config =
  match config.plan with
  | Some p -> p
  | None -> default_plan ~replicas:config.replicas config.seed

type report = {
  steps : int;
  terminated : bool;
  submitted : int;
  finished : int;
  rejected : int;
  cancelled : int;
  failed : int;
  routed : int;
  rerouted : int;
  resubmitted : int;
  adopted : int;
  route_faults : int;
  migrations_started : int;
  migrations_completed : int;
  migrations_failed : int;
  injected : int;
  retries : int;
  shed : int;
  denied : int;
  numeric_errors : int;
  trips : int;
  quarantined : int;
  pages_allocated : int;
  pages_freed : int;
  cow_copies : int;
  prefix_hits : int;
  double_released : int;
  compared : int;
  mismatched : int;
  fleet_slo_ttft : int;  (* fleet SLO-burn gauges after the drain *)
  fleet_slo_deadline : int;
  traces_checked : int;  (* causal timelines verified complete (0 when
                            the flight recorder is disabled) *)
  migrated_traced : int;  (* timelines carrying a detach→resume join *)
  violations : string list;
}

let make_trace cfg ~vocab =
  let rng = Prng.create cfg.seed in
  let shared =
    Array.init (max 0 cfg.shared_prefix) (fun _ -> Prng.int rng vocab)
  in
  List.init cfg.requests (fun id ->
      let plen = max 1 (Serve.Load_gen.sample rng cfg.prompt_len) in
      let glen = max 1 (Serve.Load_gen.sample rng cfg.new_tokens) in
      let prompt =
        Array.append shared (Array.init plen (fun _ -> Prng.int rng vocab))
      in
      let gen = Array.init glen (fun _ -> Prng.int rng vocab) in
      ( cfg.arrival_gap_s *. float_of_int id,
        Serve.Request.make ~id ~prompt ~gen ~deadline_s:cfg.deadline_s () ))

(* fault-free solo replay — the bit-identity reference for one request *)
let replay_solo llm (req : Serve.Request.t) =
  let cache = Llm.new_cache llm in
  let first = Llm.prefill llm cache (Llm.embed llm req.Serve.Request.prompt) in
  let outs = ref [ first ] in
  for k = 0 to req.Serve.Request.new_tokens - 2 do
    outs :=
      Llm.decode_step llm cache (Llm.embed llm [| req.Serve.Request.gen.(k) |])
      :: !outs
  done;
  List.rev !outs

let counter_names =
  [ Telemetry.Registry.fault_injected_name;
    Telemetry.Registry.fault_retries_name;
    Telemetry.Registry.fault_shed_name;
    Telemetry.Registry.watchdog_trips_name;
    Telemetry.Registry.pool_quarantined_name;
    Telemetry.Registry.numeric_errors_name;
    Serve.Metrics.kv_denied_name;
    Kv.Block_manager.pages_allocated_name;
    Kv.Block_manager.pages_freed_name;
    Kv.Block_manager.cow_copies_name;
    Kv.Block_manager.prefix_hits_name;
    Router.routed_name;
    Router.rerouted_name;
    Router.resubmitted_name;
    Router.adopted_name;
    Router.route_faults_name;
    Router.migrations_started_name;
    Router.migrations_completed_name;
    Router.migrations_failed_name;
    Kv_handoff.double_release_name ]

let snapshot () =
  List.map (fun n -> (n, Telemetry.Counter.value n)) counter_names

let run ?(config = default) () =
  let owned step replica =
    step < 0 || (replica >= 0 && replica < config.replicas)
  in
  assert (owned config.quarantine_step config.quarantine_replica);
  assert (owned config.hard_kill_step config.hard_kill_replica);
  let llm = Llm.create ~rng:(Prng.create 7) ~block:8 Llm.tiny in
  let vocab = (Llm.config llm).Llm.vocab in
  let prev_wd = Team.current_watchdog () in
  let prev_mode = Tpp_check.mode () in
  Fault.clear ();
  Team.set_watchdog config.watchdog;
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Team.set_watchdog prev_wd;
      Tpp_check.set_mode prev_mode)
    (fun () ->
      let rcfg =
        { Router.replicas = config.replicas;
          shards = config.shards;
          disaggregate = config.disaggregate;
          placement = config.placement;
          scheduler = config.scheduler;
          handoff_cap = config.handoff_cap;
          prefill_queue = config.requests + 1 }
      in
      (* a clean flight recorder per run: request ids recur across runs
         in one process, and the trace-conservation checks below read
         whole timelines back from the rings — bigger rings keep early
         spans from being evicted first *)
      let rec_on = Telemetry.Recorder.enabled () in
      if rec_on then begin
        Telemetry.Recorder.set_capacity 65536;
        Telemetry.Recorder.reset ();
        Telemetry.Trace.reset ()
      end;
      let router =
        match Router.create ~config:rcfg llm with
        | Ok r -> r
        | Error e -> failwith ("chaos: " ^ e)
      in
      let sched i = (Router.schedulers router).(i) in
      let trace = make_trace config ~vocab in
      let plan = plan config in
      let before = snapshot () in
      Tpp_check.set_mode (Tpp_check.Sampled 13);
      Fault.install plan;
      (* virtual-clock drive with the quarantine / hard kill at fixed
         steps *)
      let vnow = ref 0.0 in
      let now () = !vnow in
      let pending = ref trace in
      let steps = ref 0 in
      let live = ref true in
      let q_ledger_after = ref (-1) in
      (* hard-kill bookkeeping: the victim's ledger ids at the kill
         (after detach moved the in-flight sessions out) — the frozen
         set the isolation invariant checks against *)
      let hk_ids = ref None in
      while !live && !steps < config.max_steps do
        let rec admit_due () =
          match !pending with
          | (at, r) :: rest when at <= !vnow ->
            ignore (Router.submit router ~now:!vnow r);
            pending := rest;
            admit_due ()
          | _ -> ()
        in
        admit_due ();
        if !steps = config.quarantine_step then begin
          Router.quarantine router config.quarantine_replica;
          q_ledger_after :=
            List.length
              (Serve.Scheduler.requests (sched config.quarantine_replica))
        end;
        if !steps = config.hard_kill_step then begin
          Router.hard_fail router ~now:!vnow config.hard_kill_replica;
          hk_ids :=
            Some
              (List.map
                 (fun (r : Serve.Request.t) -> r.Serve.Request.id)
                 (Serve.Scheduler.requests (sched config.hard_kill_replica)))
        end;
        ignore (Router.step router ~now);
        incr steps;
        vnow := !vnow +. config.dt_s;
        live := !pending <> [] || Router.busy router
      done;
      let terminated = (not !live) && !pending = [] in
      Fault.clear ();
      Tpp_check.set_mode prev_mode;
      let after = snapshot () in
      let delta name = List.assoc name after - List.assoc name before in
      let reqs = Router.requests router in
      let count st =
        List.length
          (List.filter (fun r -> r.Serve.Request.state = st) reqs)
      in
      let finished = count Serve.Request.Finished in
      let rejected = count Serve.Request.Rejected in
      let cancelled = count Serve.Request.Cancelled in
      let failed = count Serve.Request.Failed in
      let submitted = List.length reqs in
      let migrations_started = delta Router.migrations_started_name in
      let migrations_completed = delta Router.migrations_completed_name in
      let migrations_failed = delta Router.migrations_failed_name in
      let double_released = delta Kv_handoff.double_release_name in
      let violations = ref [] in
      let check cond msg = if not cond then violations := msg :: !violations in
      (* trace conservation, fleet-wide: every routed request leaves a
         complete well-nested causal timeline whatever combination of
         re-routes, handoffs, faults and migrations it crossed; a
         migrated request carries exactly one detach→resume join (its
         one live KV copy moved exactly once). Checked before the replay
         below, whose kernel events would only slow the assembly. *)
      let traces_checked = ref 0 and migrated_traced = ref 0 in
      if rec_on then begin
        let timelines = Hashtbl.create 64 in
        List.iter
          (fun (id, evs) -> Hashtbl.replace timelines id evs)
          (Telemetry.Trace.timelines ());
        List.iter
          (fun (r : Serve.Request.t) ->
            incr traces_checked;
            let tr = r.Serve.Request.trace in
            let evs =
              Option.value ~default:[] (Hashtbl.find_opt timelines tr)
            in
            (match Telemetry.Trace.check_events evs with
            | Ok () -> ()
            | Error m ->
              check false
                (Printf.sprintf "trace conservation: trace %d: %s" tr m));
            let n k =
              List.length
                (List.filter
                   (fun e -> e.Telemetry.Recorder.ekind = k)
                   evs)
            in
            let detaches = n Telemetry.Recorder.Trace_detach in
            let resumes = n Telemetry.Recorder.Trace_resume in
            if resumes > 0 then begin
              incr migrated_traced;
              check
                (detaches = 1 && resumes = 1)
                (Printf.sprintf
                   "trace %d: migrated request has %d detach / %d resume \
                    joins (want exactly one of each)"
                   tr detaches resumes)
            end)
          reqs
      end;
      (* bit-identity vs a fault-free solo replay of each finished req *)
      let compared = ref 0 and mismatched = ref 0 in
      List.iter
        (fun (r : Serve.Request.t) ->
          if r.Serve.Request.state = Serve.Request.Finished then begin
            incr compared;
            let got = Serve.Request.outputs r in
            let want = replay_solo llm r in
            if
              List.length got <> List.length want
              || not
                   (List.for_all2
                      (fun x y -> Tensor.approx_equal ~tol:0.0 x y)
                      got want)
            then incr mismatched
          end)
        reqs;
      check terminated "fleet did not drain within max_steps";
      check (submitted = config.requests)
        "router ledger lost submissions (ledger <> trace length)";
      check
        (List.for_all
           (fun r -> Serve.Request.terminal r.Serve.Request.state)
           reqs)
        "non-terminal request left in the router ledger";
      check
        (finished + rejected + cancelled + failed = submitted)
        "terminal states do not sum to submitted";
      (* each id exactly once in the router ledger *)
      let ids = Hashtbl.create 64 in
      List.iter
        (fun (r : Serve.Request.t) ->
          Hashtbl.replace ids r.Serve.Request.id
            (1 + Option.value ~default:0 (Hashtbl.find_opt ids r.Serve.Request.id)))
        reqs;
      check
        (Hashtbl.fold (fun _ n ok -> ok && n = 1) ids true)
        "request id duplicated in the router ledger";
      (* each id in at most one decode replica's ledger — re-routes move,
         never duplicate *)
      let decode_seen = Hashtbl.create 64 in
      Array.iter
        (fun s ->
          List.iter
            (fun (r : Serve.Request.t) ->
              Hashtbl.replace decode_seen r.Serve.Request.id
                (1
                + Option.value ~default:0
                    (Hashtbl.find_opt decode_seen r.Serve.Request.id)))
            (Serve.Scheduler.requests s))
        (Router.schedulers router);
      check
        (Hashtbl.fold (fun _ n ok -> ok && n <= 1) decode_seen true)
        "request present in more than one decode replica's ledger";
      (* no double serve: outputs bounded by new_tokens, exact when
         finished *)
      check
        (List.for_all
           (fun (r : Serve.Request.t) ->
             let n = List.length (Serve.Request.outputs r) in
             n <= r.Serve.Request.new_tokens
             && (r.Serve.Request.state <> Serve.Request.Finished
                || n = r.Serve.Request.new_tokens))
           reqs)
        "request served more tokens than requested (double serve)";
      check
        (!q_ledger_after < 0
        || List.length
             (Serve.Scheduler.requests (sched config.quarantine_replica))
           = !q_ledger_after)
        "quarantined replica kept receiving work";
      (* hard-kill isolation: the dead replica's ledger is frozen at the
         kill (detach moved the in-flight ids out; nothing routes back)
         and holds only terminal requests *)
      (match !hk_ids with
      | None -> ()
      | Some frozen ->
        let ledger =
          Serve.Scheduler.requests (sched config.hard_kill_replica)
        in
        let final =
          List.map (fun (r : Serve.Request.t) -> r.Serve.Request.id) ledger
        in
        check
          (List.length final = List.length frozen
          && List.for_all (fun id -> List.mem id frozen) final)
          "hard-failed replica's ledger changed after the kill";
        check
          (List.for_all
             (fun (r : Serve.Request.t) ->
               Serve.Request.terminal r.Serve.Request.state)
             ledger)
          "non-terminal request left on the hard-failed replica";
        check
          (migrations_started
          = migrations_completed + migrations_failed)
          "migrations started <> completed + failed (a session vanished \
           in transit)");
      check
        (Router.migration_depth router = 0)
        "migration channel not drained";
      check
        (List.for_all (fun p -> Serve.Kv_pool.in_use p = 0) (Router.pools router))
        "KV caches leaked (a fleet pool has in_use <> 0 after drain)";
      (* paged-arena conservation, fleet-wide: in every replica's arena
         the free list plus the prefix trie's pins must account for all
         blocks — no block table leaked through handoff, quarantine,
         retry-rewind or shed paths *)
      check
        (List.for_all
           (fun p ->
             match Serve.Kv_pool.manager p with
             | None -> true
             | Some m ->
               let pinned =
                 match Serve.Kv_pool.prefix_cache p with
                 | Some px -> Kv.Prefix.pinned px
                 | None -> 0
               in
               Kv.Block_manager.free_blocks m + pinned
               = Kv.Block_manager.num_blocks m)
           (Router.pools router))
        "paged KV blocks leaked (free + trie pins <> arena size)";
      check (Router.handoff_depth router = 0)
        "handoff channel not drained";
      check (double_released = 0) "KV handoff released a cache twice";
      check (!mismatched = 0)
        "finished outputs not bit-identical to solo fault-free replay";
      (* an invariant violation is exactly the situation the flight
         recorder exists for: capture the rings before the report is the
         only evidence left *)
      if !violations <> [] then
        ignore (Telemetry.Recorder.post_mortem ~reason:"chaos.invariant");
      { steps = !steps; terminated; submitted; finished; rejected; cancelled;
        failed;
        routed = delta Router.routed_name;
        rerouted = delta Router.rerouted_name;
        resubmitted = delta Router.resubmitted_name;
        adopted = delta Router.adopted_name;
        route_faults = delta Router.route_faults_name;
        migrations_started; migrations_completed; migrations_failed;
        injected = delta Telemetry.Registry.fault_injected_name;
        retries = delta Telemetry.Registry.fault_retries_name;
        shed = delta Telemetry.Registry.fault_shed_name;
        denied = delta Serve.Metrics.kv_denied_name;
        numeric_errors = delta Telemetry.Registry.numeric_errors_name;
        trips = delta Telemetry.Registry.watchdog_trips_name;
        quarantined = delta Telemetry.Registry.pool_quarantined_name;
        pages_allocated = delta Kv.Block_manager.pages_allocated_name;
        pages_freed = delta Kv.Block_manager.pages_freed_name;
        cow_copies = delta Kv.Block_manager.cow_copies_name;
        prefix_hits = delta Kv.Block_manager.prefix_hits_name;
        double_released;
        compared = !compared;
        mismatched = !mismatched;
        fleet_slo_ttft = Telemetry.Gauge.value Router.fleet_slo_ttft_name;
        fleet_slo_deadline =
          Telemetry.Gauge.value Router.fleet_slo_deadline_name;
        traces_checked = !traces_checked;
        migrated_traced = !migrated_traced;
        violations = List.rev !violations })

let report_to_string r =
  let b = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "== chaos report ==\n";
  pr "drive:    %d steps, terminated=%b\n" r.steps r.terminated;
  pr "ledger:   %d submitted = %d finished + %d rejected + %d cancelled + \
      %d failed\n"
    r.submitted r.finished r.rejected r.cancelled r.failed;
  pr "router:   %d routed, %d rerouted (%d resubmitted), %d adopted \
      (handoff), %d route faults\n"
    r.routed r.rerouted r.resubmitted r.adopted r.route_faults;
  pr "failover: %d migrations started, %d completed, %d failed\n"
    r.migrations_started r.migrations_completed r.migrations_failed;
  pr "identity: %d finished compared vs solo replay, %d mismatched\n"
    r.compared r.mismatched;
  pr "faults:   %d injected, %d retries, %d shed, %d KV denials, %d numeric \
      errors, %d double releases\n"
    r.injected r.retries r.shed r.denied r.numeric_errors r.double_released;
  pr "team:     %d watchdog trips, %d workers quarantined\n" r.trips
    r.quarantined;
  pr "slo burn: fleet ttft breaches %d, deadline breaches %d\n"
    r.fleet_slo_ttft r.fleet_slo_deadline;
  if r.pages_allocated > 0 then
    pr "paged kv: %d blocks allocated, %d freed, %d COW copies, %d prefix \
        hits\n"
      r.pages_allocated r.pages_freed r.cow_copies r.prefix_hits;
  if r.traces_checked > 0 then
    pr "traces:   %d causal timelines checked complete, %d with a \
        migration join\n"
      r.traces_checked r.migrated_traced;
  (match r.violations with
  | [] -> pr "invariants: all passed\n"
  | vs ->
    pr "invariants: %d VIOLATED\n" (List.length vs);
    List.iter (fun v -> pr "  - %s\n" v) vs);
  Buffer.contents b
