(* Front-end router: spreads an arrival stream across N scheduler
   replicas with pluggable placement, optionally behind a prefill tier
   (disaggregation) — one more scheduler, created with a handoff over
   the router's Kv_handoff channel, which prefills and hands each
   request to the decode replicas. Every scheduler owns its own Kv_pool
   and runs on [Llm.shard llm ~shards] — tensor-parallel across its
   slice of the persistent Team pool when [shards > 1], bit-identical
   to one shard, so placement and sharding can never change what a
   request computes.

   Quarantine protocol (the chaos harness's conservation target): a
   quarantined replica receives no new routes or adoptions; its queued
   (never admitted) requests are evicted from queue AND ledger and
   re-routed to healthy replicas with their original arrival stamp, so
   deadlines do not reset; its in-flight sessions keep decoding until
   they drain. Each request therefore lives in exactly one decode
   ledger at any time — nothing is lost, nothing is double-served.
   Rejoin ([unquarantine]) is gated on a health probe, not a flag flip.

   Hard failure ([hard_fail]) goes further: the replica is dead, so even
   its in-flight sessions move — each is detached (KV snapshot + ledger
   removal + exactly-once source release), carried through the bounded
   migration channel, and resumed on a healthy replica chosen by the
   placement policy with its original arrival stamp. The destination
   import is the commit point: the source KV is freed only after a
   successful resume, so a fault anywhere mid-migration leaves exactly
   one live copy.

   Accounting note: re-routing re-submits through
   [Serve.Scheduler.resubmit], which does NOT bump the monotonic global
   serve.submitted counter again — each resubmission is tallied under
   [cluster.router.resubmitted] instead, so serve.submitted, the
   router's ledger (each request exactly once) and the resubmission
   count reconcile exactly. [cluster.router.rerouted] still counts
   re-route events. *)

(* fires per routing decision: Deny = admission refused at the front
   door (request rejected, accounted), Exn = placement failure (degrades
   to first-healthy routing) *)
let route_site = Fault.site "cluster.router.route"

(* migration fault sites: [export] fires before a session is
   checkpointed off a dead replica (Exn/Deny fail that session in place
   — terminal, ledgered, nothing lost); [import] fires at the
   destination just before the commit point (Exn/Deny leave the package
   intact and the router retries the next healthy replica) *)
let migrate_export_site = Fault.site "cluster.migrate.export"
let migrate_import_site = Fault.site "cluster.migrate.import"

let routed_name = "cluster.router.routed"
let rerouted_name = "cluster.router.rerouted"
let resubmitted_name = "cluster.router.resubmitted"
let rejected_name = "cluster.router.rejected"
let route_faults_name = "cluster.router.route_faults"
let quarantines_name = "cluster.router.quarantines"
let rejoins_name = "cluster.router.rejoins"
let hard_fails_name = "cluster.router.hard_fails"
let adopted_name = "cluster.adopted"
let migrations_started_name = "cluster.migrations.started"
let migrations_completed_name = "cluster.migrations.completed"
let migrations_failed_name = "cluster.migrations.failed"
let migrate_backpressure_name = "cluster.migrate.backpressure"
let migrate_pushed_name = "cluster.migrate.pushed"
let migrate_popped_name = "cluster.migrate.popped"
let migrate_depth_name = "cluster.migrate.depth"
let migration_ms_name = "cluster.migration_ms"
let fleet_inflight_name = "cluster.fleet.inflight"
let fleet_slo_ttft_name = "cluster.fleet.slo.ttft_breaches"
let fleet_slo_deadline_name = "cluster.fleet.slo.deadline_breaches"
let replica_queue_name i = Printf.sprintf "cluster.r%d.queue_depth" i
let replica_active_name i = Printf.sprintf "cluster.r%d.active" i
let replica_quarantined_name i = Printf.sprintf "cluster.r%d.quarantined" i

type placement = Round_robin | Jsq | Deadline_aware

let placement_name = function
  | Round_robin -> "rr"
  | Jsq -> "jsq"
  | Deadline_aware -> "deadline"

let placement_of_string = function
  | "rr" | "round-robin" -> Some Round_robin
  | "jsq" -> Some Jsq
  | "deadline" -> Some Deadline_aware
  | _ -> None

type config = {
  replicas : int;  (* decode replicas *)
  shards : int;  (* tensor-parallel width inside each replica *)
  disaggregate : bool;  (* dedicated prefill replica + KV handoff *)
  placement : placement;
  scheduler : Serve.Scheduler.config;  (* per-replica template *)
  handoff_cap : int;
  prefill_queue : int;
}

let default_config =
  { replicas = 2; shards = 1; disaggregate = false; placement = Round_robin;
    scheduler = Serve.Scheduler.default_config; handoff_cap = 16;
    prefill_queue = 64 }

type t = {
  cfg : config;
  scheds : Serve.Scheduler.t array;
  handoff : Kv_handoff.t option;
  prefiller : Serve.Scheduler.t option;  (* the prefill tier *)
  quarantined : bool array;
  hard_failed : bool array;  (* implies quarantined *)
  migrations : (float * Serve.Scheduler.detached) Kv_handoff.chan;
      (* detached sessions in transit, stamped with detach wall time *)
  mutable rr : int;  (* round-robin cursor *)
  mutable ledger : Serve.Request.t list;  (* every submission, newest first *)
  routed_c : Telemetry.Counter.t;
  rerouted_c : Telemetry.Counter.t;
  resubmitted_c : Telemetry.Counter.t;
  rejected_c : Telemetry.Counter.t;
  route_faults_c : Telemetry.Counter.t;
  quarantines_c : Telemetry.Counter.t;
  rejoins_c : Telemetry.Counter.t;
  hard_fails_c : Telemetry.Counter.t;
  adopted_c : Telemetry.Counter.t;
  migr_started_c : Telemetry.Counter.t;
  migr_completed_c : Telemetry.Counter.t;
  migr_failed_c : Telemetry.Counter.t;
  migr_backpressure_c : Telemetry.Counter.t;
  migration_ms_h : Telemetry.Histogram.t;
  inflight_g : Telemetry.Gauge.t;
  slo_ttft_g : Telemetry.Gauge.t;
  slo_deadline_g : Telemetry.Gauge.t;
  queue_gs : Telemetry.Gauge.t array;
  active_gs : Telemetry.Gauge.t array;
  quarantine_gs : Telemetry.Gauge.t array;
}

(* prefill replica's telemetry index sits after the decode replicas *)
let prefill_replica_index cfg = cfg.replicas

let replica_indices t =
  let n = t.cfg.replicas in
  List.init (if t.prefiller = None then n else n + 1) Fun.id

let create ?(config = default_config) llm =
  if config.replicas < 1 then Error "Router.create: replicas must be >= 1"
  else
    match Llm.shard llm ~shards:config.shards with
    | Error e -> Error e
    | Ok sharded ->
      let scheds =
        Array.init config.replicas (fun i ->
            Serve.Scheduler.create
              ~config:{ config.scheduler with Serve.Scheduler.replica = Some i }
              sharded)
      in
      let handoff, prefiller =
        if config.disaggregate then begin
          let h = Kv_handoff.create ~cap:config.handoff_cap () in
          (* the tier's [max_batch] bounds its live caches over the whole
             prefill -> handoff -> decode window. Under a paged template
             the tier has its own arena: the handoff carries block
             tables over it, and the decode tier appends into those
             blocks until the exactly-once release returns them. *)
          let p =
            Serve.Scheduler.create
              ~config:
                { config.scheduler with
                  Serve.Scheduler.max_queue = config.prefill_queue;
                  max_batch =
                    config.handoff_cap
                    + config.scheduler.Serve.Scheduler.max_batch;
                  replica = Some (prefill_replica_index config) }
              ~handoff:
                { Serve.Scheduler.room = (fun () -> not (Kv_handoff.is_full h));
                  push =
                    (fun req cache ~release ->
                      Kv_handoff.push h ~req ~cache ~release) }
              sharded
          in
          (Some h, Some p)
        end
        else (None, None)
      in
      let c = Telemetry.Counter.find_or_create in
      let g = Telemetry.Gauge.find_or_create in
      Ok
        { cfg = config; scheds; handoff; prefiller;
          quarantined = Array.make config.replicas false;
          hard_failed = Array.make config.replicas false;
          migrations =
            Kv_handoff.chan_create ~cap:config.handoff_cap
              ~pushed:migrate_pushed_name ~popped:migrate_popped_name
              ~depth:migrate_depth_name ();
          rr = 0; ledger = [];
          routed_c = c routed_name;
          rerouted_c = c rerouted_name;
          resubmitted_c = c resubmitted_name;
          rejected_c = c rejected_name;
          route_faults_c = c route_faults_name;
          quarantines_c = c quarantines_name;
          rejoins_c = c rejoins_name;
          hard_fails_c = c hard_fails_name;
          adopted_c = c adopted_name;
          migr_started_c = c migrations_started_name;
          migr_completed_c = c migrations_completed_name;
          migr_failed_c = c migrations_failed_name;
          migr_backpressure_c = c migrate_backpressure_name;
          migration_ms_h = Telemetry.Histogram.find_or_create migration_ms_name;
          inflight_g = g fleet_inflight_name;
          slo_ttft_g = g fleet_slo_ttft_name;
          slo_deadline_g = g fleet_slo_deadline_name;
          queue_gs = Array.init config.replicas (fun i -> g (replica_queue_name i));
          active_gs =
            Array.init config.replicas (fun i -> g (replica_active_name i));
          quarantine_gs =
            Array.init config.replicas (fun i ->
                g (replica_quarantined_name i)) }

let config t = t.cfg
let schedulers t = t.scheds
let prefiller t = t.prefiller
let handoff_depth t = match t.handoff with None -> 0 | Some h -> Kv_handoff.depth h
let requests t = List.rev t.ledger
let is_quarantined t i = t.quarantined.(i)

let healthy t =
  List.filter
    (fun i -> not t.quarantined.(i))
    (List.init t.cfg.replicas Fun.id)

(* every scheduler in the fleet: decode replicas, then the prefill tier *)
let all_schedulers t = Array.to_list t.scheds @ Option.to_list t.prefiller

let tokens_emitted t =
  List.fold_left
    (fun a s -> a + Serve.Scheduler.tokens_emitted s)
    0 (all_schedulers t)

let pools t = List.map Serve.Scheduler.pool (all_schedulers t)

(* shortest queue among healthy replicas: queued + active, first index
   wins ties — deterministic for the chaos harness *)
let pick_jsq t hs =
  let load i =
    Serve.Scheduler.queue_depth t.scheds.(i)
    + Serve.Scheduler.active_count t.scheds.(i)
  in
  List.fold_left
    (fun best i ->
      match best with
      | Some b when load b <= load i -> best
      | _ -> Some i)
    None hs

let pick_rr t hs =
  let n = List.length hs in
  let i = List.nth hs (t.rr mod n) in
  t.rr <- t.rr + 1;
  Some i

(* placement: deadline-aware sends SLO-carrying requests to the shortest
   queue (their budget burns in queues) and best-effort ones round-robin *)
let choose t (req : Serve.Request.t) =
  match healthy t with
  | [] -> None
  | hs -> (
    match t.cfg.placement with
    | Round_robin -> pick_rr t hs
    | Jsq -> pick_jsq t hs
    | Deadline_aware ->
      if req.Serve.Request.deadline_s < Float.infinity then pick_jsq t hs
      else pick_rr t hs)

let reject_at_router t (req : Serve.Request.t) ~now =
  req.Serve.Request.arrival_s <- now;
  req.Serve.Request.state <- Serve.Request.Rejected;
  Telemetry.Counter.incr t.rejected_c;
  Telemetry.Trace.terminal ~id:req.Serve.Request.trace
    ~label:Telemetry.Trace.router_label
    ~state:(Serve.Request.state_code Serve.Request.Rejected)
    ~reason:"rejected" ()

(* the routing decision lands in the request's causal timeline: operand
   [b] is the chosen replica index (the prefill replica for a
   disaggregated fleet) *)
let trace_routed (req : Serve.Request.t) i =
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_routed
    ~label:Telemetry.Trace.router_label ~a:req.Serve.Request.trace ~b:i

(* route one request: ledger first (the router's ledger is the fleet's
   source of truth), then placement, then the replica's own admission *)
let submit t ~now (req : Serve.Request.t) =
  t.ledger <- req :: t.ledger;
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_queued
    ~label:Telemetry.Trace.router_label ~a:req.Serve.Request.trace ~b:0;
  let reject () =
    reject_at_router t req ~now;
    false
  in
  let route sched i =
    Telemetry.Counter.incr t.routed_c;
    trace_routed req i;
    Serve.Scheduler.submit sched ~now req
  in
  match Fault.fire route_site with
  | `Deny ->
    Telemetry.Counter.incr t.route_faults_c;
    reject ()
  | exception Fault.Injected _ -> (
    (* placement failure: degrade to first-healthy, never drop *)
    Telemetry.Counter.incr t.route_faults_c;
    match (healthy t, t.prefiller) with
    | [], _ -> reject ()
    | _, Some p -> route p (prefill_replica_index t.cfg)
    | i :: _, None -> route t.scheds.(i) i)
  | `None | `Nan -> (
    match t.prefiller with
    | Some p -> route p (prefill_replica_index t.cfg)
    | None -> (
      match choose t req with
      | None -> reject ()
      | Some i -> route t.scheds.(i) i))

(* quarantine: stop routing to [i], evict its queued requests and
   re-route them (original arrival stamp — deadlines never reset), let
   its in-flight batch drain. Safe to call twice. *)
let quarantine t i =
  if i < 0 || i >= t.cfg.replicas then
    invalid_arg "Router.quarantine: bad replica";
  if not t.quarantined.(i) then begin
    t.quarantined.(i) <- true;
    Telemetry.Counter.incr t.quarantines_c;
    Telemetry.Gauge.set t.quarantine_gs.(i) 1;
    let evicted = Serve.Scheduler.evict_queued t.scheds.(i) in
    List.iter
      (fun (r : Serve.Request.t) ->
        Telemetry.Counter.incr t.rerouted_c;
        match choose t r with
        | None -> reject_at_router t r ~now:r.Serve.Request.arrival_s
        | Some j ->
          Telemetry.Counter.incr t.resubmitted_c;
          trace_routed r j;
          ignore
            (Serve.Scheduler.resubmit t.scheds.(j)
               ~now:r.Serve.Request.arrival_s r))
      evicted
  end

(* Rejoin is gated on a health probe — one successful no-op engine step
   on the replica — not a bare flag flip; [false] means the probe failed
   and the replica stays out of the rotation. A hard-failed replica may
   rejoin the same way (the probe is what models its restart). *)
let unquarantine t i =
  if i < 0 || i >= t.cfg.replicas then
    invalid_arg "Router.unquarantine: bad replica"
  else if not t.quarantined.(i) then true
  else begin
    let ok = Serve.Scheduler.probe t.scheds.(i) in
    if ok then begin
      t.quarantined.(i) <- false;
      t.hard_failed.(i) <- false;
      Telemetry.Counter.incr t.rejoins_c;
      Telemetry.Gauge.set t.quarantine_gs.(i) 0
    end;
    ok
  end

let migration_depth t = Kv_handoff.chan_depth t.migrations

(* one destination attempt: [`Resumed] commits; [`Full]/[`Denied]/an
   exception (the [cluster.migrate.import] site, or any import error)
   leave the package intact for the next candidate *)
let try_resume t ~now (d : Serve.Scheduler.detached) j =
  match
    Serve.Scheduler.resume t.scheds.(j)
      ~before_import:(fun () ->
        match Fault.fire migrate_import_site with
        | `Deny -> failwith "cluster.migrate.import: denied"
        | `None | `Nan -> ())
      ~now d
  with
  | `Resumed -> true
  | `Full | `Denied -> false
  | exception _ -> false

(* a detached session no replica can take fails terminally: exactly one
   release, counted under cluster.migrations.failed — never a silent
   drop *)
let fail_migration t ~now (d : Serve.Scheduler.detached) =
  let r = d.Serve.Scheduler.d_req in
  r.Serve.Request.state <- Serve.Request.Failed;
  r.Serve.Request.finish_s <- now -. r.Serve.Request.arrival_s;
  d.Serve.Scheduler.d_release ();
  Telemetry.Counter.incr t.migr_failed_c;
  Telemetry.Trace.terminal ~id:r.Serve.Request.trace
    ~label:Telemetry.Trace.router_label
    ~state:(Serve.Request.state_code Serve.Request.Failed)
    ~reason:"failed" ()

(* Drain the migration channel: place each detached session on a healthy
   replica (placement policy first, then the remaining healthy replicas
   in order). On success the destination import has committed, so — and
   only then — the source KV is released and the latency recorded. A
   session no replica can take *right now* ([`Full]/[`Denied]
   everywhere) is requeued at the head and retried next step; with no
   healthy replica at all it fails terminally rather than spinning —
   conservation over availability. *)
let drain_migrations t ~now =
  let worked = ref false in
  let rec go () =
    match Kv_handoff.chan_pop t.migrations with
    | None -> ()
    | Some (t0, d) -> (
      match healthy t with
      | [] ->
        fail_migration t ~now d;
        worked := true;
        go ()
      | hs ->
        let candidates =
          match choose t d.Serve.Scheduler.d_req with
          | Some j -> j :: List.filter (fun k -> k <> j) hs
          | None -> hs
        in
        if List.exists (try_resume t ~now d) candidates then begin
          (* commit point passed: the destination owns the session *)
          d.Serve.Scheduler.d_release ();
          Telemetry.Counter.incr t.migr_completed_c;
          Telemetry.Histogram.observe t.migration_ms_h
            (1000.0 *. (Telemetry.Clock.now_s () -. t0));
          worked := true;
          go ()
        end
        else Kv_handoff.chan_requeue t.migrations (t0, d))
  in
  go ();
  !worked

(* Hard failure: unlike [quarantine] (stop routing, drain in place),
   replica [i] is dead — its queued requests are evicted and re-routed
   exactly as in quarantine, and every in-flight session is detached and
   pushed through the bounded migration channel. A [`Full] push is
   structured backpressure: drain in place, retry, and as a last resort
   place the session directly — never drop it. Safe to call twice. *)
let hard_fail t ~now i =
  if i < 0 || i >= t.cfg.replicas then
    invalid_arg "Router.hard_fail: bad replica";
  if not t.hard_failed.(i) then begin
    t.hard_failed.(i) <- true;
    Telemetry.Counter.incr t.hard_fails_c;
    quarantine t i;
    (* gauge level 2 distinguishes dead from drained-in-place *)
    Telemetry.Gauge.set t.quarantine_gs.(i) 2;
    let sched = t.scheds.(i) in
    let rec detach_all () =
      match
        Serve.Scheduler.detach_next sched ~now_s:now
          ~before_export:(fun () ->
            match Fault.fire migrate_export_site with
            | `Deny -> failwith "cluster.migrate.export: denied"
            | `None | `Nan -> ())
      with
      | `Empty -> ()
      | `Failed _ ->
        (* export fault: the session failed in place, still ledgered *)
        Telemetry.Counter.incr t.migr_started_c;
        Telemetry.Counter.incr t.migr_failed_c;
        detach_all ()
      | `Detached d ->
        Telemetry.Counter.incr t.migr_started_c;
        let item = (Telemetry.Clock.now_s (), d) in
        (match Kv_handoff.chan_push t.migrations item with
        | `Ok -> ()
        | `Full -> (
          Telemetry.Counter.incr t.migr_backpressure_c;
          ignore (drain_migrations t ~now);
          match Kv_handoff.chan_push t.migrations item with
          | `Ok -> ()
          | `Full ->
            (* channel still full (all destinations refusing): place
               this one directly rather than drop it *)
            let placed =
              match healthy t with
              | [] -> false
              | hs -> List.exists (try_resume t ~now d) hs
            in
            if placed then begin
              d.Serve.Scheduler.d_release ();
              Telemetry.Counter.incr t.migr_completed_c
            end
            else fail_migration t ~now d));
        detach_all ()
    in
    detach_all ();
    ignore (drain_migrations t ~now)
  end

(* per-replica + fleet gauges: levels recomputed once per step *)
let publish t =
  let inflight = ref (handoff_depth t) in
  (match t.prefiller with
  | Some p -> inflight := !inflight + Serve.Scheduler.queue_depth p
  | None -> ());
  Array.iteri
    (fun i s ->
      let q = Serve.Scheduler.queue_depth s in
      let a = Serve.Scheduler.active_count s in
      inflight := !inflight + q + a;
      Telemetry.Gauge.set t.queue_gs.(i) q;
      Telemetry.Gauge.set t.active_gs.(i) a)
    t.scheds;
  Telemetry.Gauge.set t.inflight_g !inflight;
  let sum name_of =
    List.fold_left
      (fun a i -> a + Telemetry.Counter.value (name_of i))
      0 (replica_indices t)
  in
  Telemetry.Gauge.set t.slo_ttft_g
    (sum Serve.Metrics.replica_slo_ttft_breaches_name);
  Telemetry.Gauge.set t.slo_deadline_g
    (sum Serve.Metrics.replica_slo_deadline_breaches_name)

(* adopt finished prefills into healthy decode replicas; stop at the
   first replica refusal ([`Full]) to preserve handoff order *)
let drain_handoff t ~now =
  match t.handoff with
  | None -> false
  | Some h ->
    let worked = ref false in
    let rec go () =
      match Kv_handoff.pop h with
      | None -> ()
      | Some e -> (
        match choose t e.Kv_handoff.req with
        | None -> Kv_handoff.requeue h e
        | Some i -> (
          match
            Serve.Scheduler.adopt t.scheds.(i) ~now:(now ())
              ~release:e.Kv_handoff.release e.Kv_handoff.req
              e.Kv_handoff.cache
          with
          | `Adopted ->
            Telemetry.Counter.incr t.adopted_c;
            trace_routed e.Kv_handoff.req i;
            worked := true;
            go ()
          | `Full -> Kv_handoff.requeue h e))
    in
    go ();
    !worked

let step t ~now =
  let worked = ref false in
  (match t.prefiller with
  | Some p -> if Serve.Scheduler.step p ~now then worked := true
  | None -> ());
  if drain_handoff t ~now then worked := true;
  (* sessions stranded in the migration channel retry every step — a
     destination that was [`Full] frees slots as its batch drains *)
  if migration_depth t > 0 && drain_migrations t ~now:(now ()) then
    worked := true;
  (* quarantined replicas still step (their in-flight batch must drain);
     hard-failed ones are dead — detach emptied them, nothing runs *)
  Array.iteri
    (fun i s ->
      if (not t.hard_failed.(i)) && Serve.Scheduler.step s ~now then
        worked := true)
    t.scheds;
  publish t;
  !worked

let busy t =
  Array.exists Serve.Scheduler.busy t.scheds
  || handoff_depth t > 0
  || migration_depth t > 0
  || match t.prefiller with None -> false | Some p -> Serve.Scheduler.busy p

let drain t ~now =
  while busy t do
    ignore (step t ~now)
  done
