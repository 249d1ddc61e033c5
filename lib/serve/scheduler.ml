(* Continuous-batching serving loop over one [Llm.t] — the Orca-style
   iteration-level scheduler the paper's two-phase latency structure
   (§IV-A / Fig. 11) calls for:

     - [submit] appends to a bounded admission queue (explicit rejection
       when full — backpressure instead of unbounded memory); a request
       whose deadline has already passed is rejected up front;
     - each [step] first enforces deadlines (a session past its SLO is
       cancelled and its KV cache returned to the pool; a queued request
       past its SLO is cancelled without ever running), then admits
       queued requests up to the current batch limit, running the
       compute-bound prefill for every admission and recording its TTFT;
       then runs ONE bandwidth-bound decode step for EVERY active
       session — requests join and leave the batch at token granularity,
       never waiting for a batch-mate to finish;
     - finished sessions release their KV cache back to the pool, making
       room for the next admission on the following iteration.

   Failure handling (the serving half of lib/fault's contract):
     - a prefill/decode step that raises is retried up to [max_retries]
       times; before each retry the KV cache is rewound
       ([Llm.truncate_cache]) to its pre-step length, so a recovered run
       is bit-identical to one that never failed. A step that keeps
       failing marks the request [Failed] and releases its KV.
     - a [`Denied] KV acquire sheds load: the request goes back to the
       queue head and the effective batch limit shrinks (never below 1);
       after [recovery_steps] denial-free iterations it grows back toward
       [max_batch]. Denial while the pool lends out no cache means no
       release can ever unblock us, so the request fails instead of
       spinning.
     - [check_numerics] turns each step's output through the TPP numeric
       guard, so a NaN poisoned into a kernel surfaces as a retryable
       structured error instead of a corrupt token.

   With a [handoff] the scheduler is the prefill tier of a disaggregated
   fleet: it admits one request a step while the handoff has room, and
   hands each prefilled request (with its cache and the exactly-once
   release back to this pool) to the decode tier instead of decoding it.

   Sessions are independent (no cross-request math), so batched decoding
   is bit-identical to running each session alone — the invariant the
   serve tests pin down. The scheduler is deterministic given a submission
   order: wall-clock time feeds only the latency telemetry — unless
   deadlines are finite, in which case the caller chooses the clock (the
   chaos harness drives a virtual one for determinism). *)

type policy = Fcfs | Edf

let policy_name = function Fcfs -> "fcfs" | Edf -> "deadline"

let policy_of_string = function
  | "fcfs" -> Some Fcfs
  | "deadline" | "edf" -> Some Edf
  | _ -> None

type config = {
  max_queue : int;  (* bounded admission queue; submit rejects beyond *)
  max_batch : int;  (* max concurrently decoding sessions *)
  policy : policy;
  nthreads : int option;  (* team size handed to prefill/decode *)
  kv_cap : int;  (* initial rows of pooled KV caches *)
  max_retries : int;  (* extra attempts for a failing prefill/decode *)
  check_numerics : bool;  (* guard step outputs with Tpp_check.finite_2d *)
  replica : int option;
      (* cluster replica index: observe into serve.r<i>.* telemetry
         alongside the global serve.* names *)
  paged : bool;  (* paged KV storage over a shared block arena *)
  block_size : int;  (* tokens per KV block (paged only) *)
  num_blocks : int;  (* arena size in blocks (paged only) *)
  prefix_share : bool;  (* dedupe shared prompt prefixes (paged only) *)
  spec_k : int;  (* speculative decoding: draft tokens per round; 0 = off *)
  draft_layers : int;  (* decoder layers of the draft model *)
  spec_accuracy : float;
      (* deterministic draft-acceptance model: the probability a proposed
         token matches the truth (there is no LM head — acceptance is
         drawn from a hash of (request id, position), so runs replay) *)
  online_tune : bool;
      (* enable the online per-shape spec cache: serve-path GEMM shapes
         are tuned on a background domain and hot-swapped after a
         bit-identity check *)
}

let default_config =
  { max_queue = 64; max_batch = 8; policy = Fcfs; nthreads = None;
    kv_cap = 16; max_retries = 2; check_numerics = false; replica = None;
    paged = false; block_size = 16; num_blocks = 64; prefix_share = true;
    spec_k = 0; draft_layers = 1; spec_accuracy = 0.75; online_tune = false }

(* pluggable model entry point, so a cluster replica can substitute the
   tensor-parallel (sharded) kernels for the default single-team path
   without the scheduler knowing the difference. One batched [extend]
   covers every phase: prefill (empty cache, last row = first token),
   single-token decode (one row) and speculative verification (k+1
   rows) — per-row outputs are bit-identical across all three. *)
type engine = { extend : Llm.kv_cache -> Tensor.t -> Tensor.t }

(* the decode tier's channel, as the prefill tier of a disaggregated
   fleet sees it: [room] = it can take one more request; [push] hands
   over a prefilled request, its cache and the exactly-once release that
   returns the cache to this scheduler's pool. [`Full] or an exception
   refuses the push. *)
type handoff = {
  room : unit -> bool;
  push :
    Request.t ->
    Llm.kv_cache ->
    release:(Llm.kv_cache -> unit) ->
    [ `Ok | `Full ];
}

(* denial-free steps before the shed batch limit is raised by one *)
let recovery_steps = 8

type session = {
  req : Request.t;
  cache : Llm.kv_cache;
  release : Llm.kv_cache -> unit;
      (* where the cache goes on retirement: the scheduler's own pool for
         locally admitted sessions, the prefill tier's pool for sessions
         adopted through a KV handoff *)
  mutable emitted : int;  (* output tokens produced so far *)
  mutable last_token_s : float;  (* inter-token latency anchor *)
  draft : Llm.kv_cache option;
      (* speculative decoding draft-model cache (contiguous, private,
         dropped to the GC on retirement); None = greedy decode *)
}

(* per-replica telemetry shadow: bumped alongside the global handles *)
type replica_tel = {
  r_ttft : Telemetry.Histogram.t;
  r_tpot : Telemetry.Histogram.t;
  r_submitted : Telemetry.Counter.t;
  r_rejected : Telemetry.Counter.t;
  r_completed : Telemetry.Counter.t;
  r_cancelled : Telemetry.Counter.t;
  r_failed : Telemetry.Counter.t;
  r_ttft_breach : Telemetry.Counter.t;
  r_deadline_breach : Telemetry.Counter.t;
}

type t = {
  llm : Llm.t;
  cfg : config;
  engine : engine;
  handoff : handoff option;  (* Some = prefill tier of a disaggregated fleet *)
  draft_llm : Llm.t option;  (* Some iff spec_k > 0 and this decodes *)
  rtel : replica_tel option;
  tr_lbl : int;
      (* causal-trace lane label: "replica:<i>" on a cluster replica
         (rendered as its own Chrome process lane), "serve" standalone *)
  pool : Kv_pool.t;
  mutable queue : Request.t list;  (* oldest first *)
  mutable active : session list;  (* admission order *)
  mutable ledger : Request.t list;  (* every submission, newest first *)
  mutable finished : Request.t list;  (* completion order, newest first *)
  mutable tokens : int;
  mutable eff_batch : int;  (* current (possibly shed) batch limit *)
  mutable clean : int;  (* consecutive denial-free steps *)
  mutable denied_step : bool;  (* saw a KV denial this step *)
  mutable idle_denials : int;  (* consecutive denials with an empty batch *)
  ttft_h : Telemetry.Histogram.t;
  tpot_h : Telemetry.Histogram.t;
  submitted_c : Telemetry.Counter.t;
  rejected_c : Telemetry.Counter.t;
  completed_c : Telemetry.Counter.t;
  cancelled_c : Telemetry.Counter.t;
  failed_c : Telemetry.Counter.t;
  queue_g : Telemetry.Gauge.t;
  eff_batch_g : Telemetry.Gauge.t;
  retries_c : Telemetry.Counter.t;
  shed_c : Telemetry.Counter.t;
  ttft_breach_c : Telemetry.Counter.t;
  deadline_breach_c : Telemetry.Counter.t;
  spec_proposed_c : Telemetry.Counter.t;
  spec_accepted_c : Telemetry.Counter.t;
  spec_rejected_c : Telemetry.Counter.t;
}

(* fault sites: fire ahead of the real model call, inside the retry
   scope, so an injected transient exercises exactly the recovery path a
   real kernel failure would *)
let prefill_site = Fault.site "serve.prefill"
let decode_site = Fault.site "serve.decode"

(* flight-recorder label for scheduler iteration events *)
let lbl_sched = Telemetry.Recorder.intern "serve.scheduler"

(* this many deadline cancellations in one sweep is a cancellation storm:
   worth a post-mortem dump, because by the next report the evidence of
   *why* the batch fell behind (stalls, faults, KV denials) is gone *)
let storm_threshold = 4

let create ?(config = default_config) ?engine ?handoff llm =
  assert (config.max_queue > 0 && config.max_batch > 0);
  assert (config.max_retries >= 0);
  assert (config.spec_k >= 0 && config.block_size > 0 && config.num_blocks > 0);
  (* the spec cache is process-global (it hooks Gemm's resolver); the
     scheduler only switches it on — a cluster of replicas shares one
     cache and one background tuning domain *)
  if config.online_tune && not (Spec_cache.enabled ()) then
    Spec_cache.enable ~nthreads:(Option.value config.nthreads ~default:1) ();
  let engine =
    match engine with
    | Some e -> e
    | None ->
      { extend =
          (fun cache emb -> Llm.extend ?nthreads:config.nthreads llm cache emb)
      }
  in
  let draft_llm =
    if config.spec_k > 0 && handoff = None then
      Some (Llm.draft llm ~layers:config.draft_layers)
    else None
  in
  let rtel =
    Option.map
      (fun i ->
        { r_ttft =
            Telemetry.Histogram.find_or_create (Metrics.replica_ttft_ms_name i);
          r_tpot =
            Telemetry.Histogram.find_or_create (Metrics.replica_tpot_ms_name i);
          r_submitted =
            Telemetry.Counter.find_or_create (Metrics.replica_submitted_name i);
          r_rejected =
            Telemetry.Counter.find_or_create (Metrics.replica_rejected_name i);
          r_completed =
            Telemetry.Counter.find_or_create (Metrics.replica_completed_name i);
          r_cancelled =
            Telemetry.Counter.find_or_create (Metrics.replica_cancelled_name i);
          r_failed =
            Telemetry.Counter.find_or_create (Metrics.replica_failed_name i);
          r_ttft_breach =
            Telemetry.Counter.find_or_create
              (Metrics.replica_slo_ttft_breaches_name i);
          r_deadline_breach =
            Telemetry.Counter.find_or_create
              (Metrics.replica_slo_deadline_breaches_name i) })
      config.replica
  in
  let pool_policy =
    if config.paged then
      Kv_pool.Paged
        { block_size = config.block_size; num_blocks = config.num_blocks;
          prefix = config.prefix_share }
    else Kv_pool.Contiguous
  in
  let tr_lbl =
    match config.replica with
    | Some i -> Telemetry.Trace.replica_label i
    | None -> Telemetry.Trace.solo_label
  in
  let t =
    { llm; cfg = config; engine; handoff; draft_llm; rtel; tr_lbl;
      pool =
        Kv_pool.create ~init_cap:config.kv_cap ~max_live:config.max_batch
          ~policy:pool_policy llm;
      queue = []; active = []; ledger = []; finished = []; tokens = 0;
      eff_batch = config.max_batch; clean = 0; denied_step = false;
      idle_denials = 0;
      ttft_h = Telemetry.Histogram.find_or_create Metrics.ttft_ms_name;
      tpot_h = Telemetry.Histogram.find_or_create Metrics.tpot_ms_name;
      submitted_c = Telemetry.Counter.find_or_create Metrics.submitted_name;
      rejected_c = Telemetry.Counter.find_or_create Metrics.rejected_name;
      completed_c = Telemetry.Counter.find_or_create Metrics.completed_name;
      cancelled_c = Telemetry.Counter.find_or_create Metrics.cancelled_name;
      failed_c = Telemetry.Counter.find_or_create Metrics.failed_name;
      queue_g = Telemetry.Gauge.find_or_create Metrics.queue_depth_name;
      eff_batch_g = Telemetry.Gauge.find_or_create Metrics.eff_batch_name;
      retries_c =
        Telemetry.Counter.find_or_create Telemetry.Registry.fault_retries_name;
      shed_c =
        Telemetry.Counter.find_or_create Telemetry.Registry.fault_shed_name;
      ttft_breach_c =
        Telemetry.Counter.find_or_create Metrics.slo_ttft_breaches_name;
      deadline_breach_c =
        Telemetry.Counter.find_or_create Metrics.slo_deadline_breaches_name;
      spec_proposed_c =
        Telemetry.Counter.find_or_create Metrics.spec_proposed_name;
      spec_accepted_c =
        Telemetry.Counter.find_or_create Metrics.spec_accepted_name;
      spec_rejected_c =
        Telemetry.Counter.find_or_create Metrics.spec_rejected_name }
  in
  Telemetry.Gauge.set t.eff_batch_g t.eff_batch;
  t

let config t = t.cfg
let pool t = t.pool
let queue_depth t = List.length t.queue
let active_count t = List.length t.active
let tokens_emitted t = t.tokens
let busy t = t.queue <> [] || t.active <> []

(* submission ledger, oldest first *)
let requests t = List.rev t.ledger

(* completed requests in completion order *)
let finished t = List.rev t.finished

(* bump a global counter and, on a cluster replica, its serve.r<i>.*
   shadow — the per-replica split the fleet report exposes *)
let incr2 t global sel =
  Telemetry.Counter.incr global;
  match t.rtel with
  | None -> ()
  | Some r -> Telemetry.Counter.incr (sel r)

let observe2 t global sel v =
  Telemetry.Histogram.observe global v;
  match t.rtel with
  | None -> ()
  | Some r -> Telemetry.Histogram.observe (sel r) v

let submit_common t ~now ~count_submitted (req : Request.t) =
  req.Request.arrival_s <- now;
  t.ledger <- req :: t.ledger;
  if count_submitted then incr2 t t.submitted_c (fun r -> r.r_submitted);
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_queued ~label:t.tr_lbl
    ~a:req.Request.trace
    ~b:(List.length t.queue);
  if req.Request.deadline_s <= 0.0 || List.length t.queue >= t.cfg.max_queue
  then begin
    (* queue full, or the SLO is already blown at submission: running it
       could only waste batch slots on a guaranteed miss *)
    if req.Request.deadline_s <= 0.0 then
      incr2 t t.deadline_breach_c (fun r -> r.r_deadline_breach);
    req.Request.state <- Request.Rejected;
    incr2 t t.rejected_c (fun r -> r.r_rejected);
    Telemetry.Trace.terminal ~id:req.Request.trace ~label:t.tr_lbl
      ~state:(Request.state_code Request.Rejected)
      ~reason:"rejected" ();
    false
  end
  else begin
    req.Request.state <- Request.Queued;
    t.queue <- t.queue @ [ req ];
    Telemetry.Gauge.set t.queue_g (List.length t.queue);
    true
  end

let submit t ~now req = submit_common t ~now ~count_submitted:true req

(* Re-route resubmission (quarantine/failover): identical admission to
   [submit], but the original submission was already counted on the
   evicting replica — bumping [serve.submitted] again here is the
   double-count the router header used to document. The router records
   the event under its own [cluster.router.resubmitted] counter instead,
   so fleet telemetry reconciles with the ledger. *)
let resubmit t ~now req = submit_common t ~now ~count_submitted:false req

(* next admission per policy; queue order is arrival order, and the fold
   keeps the earlier element on ties, so FCFS and EDF are deterministic *)
let pop_next t =
  match t.queue with
  | [] -> None
  | q ->
    let key (r : Request.t) =
      match t.cfg.policy with
      | Fcfs -> r.Request.arrival_s
      | Edf -> Request.deadline_abs r
    in
    let best =
      List.fold_left
        (fun acc r ->
          match acc with Some b when key b <= key r -> acc | _ -> Some r)
        None q
    in
    (match best with
    | Some b ->
      t.queue <- List.filter (fun r -> r != b) q;
      Telemetry.Gauge.set t.queue_g (List.length t.queue)
    | None -> ());
    best

let embed t ids = Llm.embed t.llm ids

(* deterministic draft-acceptance draw: splitmix64 over (request id,
   token position) mapped to [0,1). No mutable RNG state — replays and
   the chaos reference run see identical accept/reject sequences. *)
let splitmix64 z =
  let open Int64 in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let accept_draw ~id ~pos =
  let h = splitmix64 (Int64.of_int (((id * 0x9E3779B1) lxor pos) + pos)) in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

(* true token id at cache position [i] of a request: prompt, then the
   pre-drawn generator ids *)
let token_at (req : Request.t) i =
  let plen = Array.length req.Request.prompt in
  if i < plen then req.Request.prompt.(i) else req.Request.gen.(i - plen)

let retire t (s : session) ~now_s ~(state : Request.state) =
  s.req.Request.state <- state;
  s.req.Request.finish_s <- now_s -. s.req.Request.arrival_s;
  s.release s.cache;
  t.active <- List.filter (fun x -> x != s) t.active

let finish t (s : session) ~now_s =
  retire t s ~now_s ~state:Request.Finished;
  incr2 t t.completed_c (fun r -> r.r_completed);
  let breached = not (Request.met_deadline s.req) in
  if breached then
    incr2 t t.deadline_breach_c (fun r -> r.r_deadline_breach);
  Telemetry.Trace.terminal ~id:s.req.Request.trace ~label:t.tr_lbl
    ~state:(Request.state_code Request.Finished)
    ?reason:(if breached then Some "deadline_breach" else None)
    ();
  t.finished <- s.req :: t.finished

let cancel t (s : session) ~now_s =
  retire t s ~now_s ~state:Request.Cancelled;
  incr2 t t.cancelled_c (fun r -> r.r_cancelled);
  Telemetry.Trace.terminal ~id:s.req.Request.trace ~label:t.tr_lbl
    ~state:(Request.state_code Request.Cancelled)
    ~reason:"deadline_cancelled" ()

(* fail a request that holds no session (and so no cache) *)
let fail_request ?(reason = "failed") t (req : Request.t) ~now_s =
  req.Request.state <- Request.Failed;
  req.Request.finish_s <- now_s -. req.Request.arrival_s;
  incr2 t t.failed_c (fun r -> r.r_failed);
  Telemetry.Trace.terminal ~id:req.Request.trace ~label:t.tr_lbl
    ~state:(Request.state_code Request.Failed)
    ~reason ()

let fail_session t (s : session) ~now_s =
  retire t s ~now_s ~state:Request.Failed;
  incr2 t t.failed_c (fun r -> r.r_failed);
  Telemetry.Trace.terminal ~id:s.req.Request.trace ~label:t.tr_lbl
    ~state:(Request.state_code Request.Failed)
    ~reason:"failed" ()

(* deadline enforcement: an active session past its absolute deadline is
   cancelled (KV back to the pool); a queued request past its deadline is
   cancelled before wasting a prefill *)
let sweep_deadlines t ~now_s =
  let storm = ref 0 in
  List.iter
    (fun s ->
      if now_s > Request.deadline_abs s.req then begin
        cancel t s ~now_s;
        incr2 t t.deadline_breach_c (fun r -> r.r_deadline_breach);
        incr storm
      end)
    t.active;
  let late, ok =
    List.partition
      (fun (r : Request.t) -> now_s > Request.deadline_abs r)
      t.queue
  in
  if late <> [] then begin
    t.queue <- ok;
    Telemetry.Gauge.set t.queue_g (List.length t.queue);
    List.iter
      (fun (r : Request.t) ->
        r.Request.state <- Request.Cancelled;
        r.Request.finish_s <- now_s -. r.Request.arrival_s;
        incr2 t t.cancelled_c (fun rt -> rt.r_cancelled);
        incr2 t t.deadline_breach_c (fun rt -> rt.r_deadline_breach);
        Telemetry.Trace.terminal ~id:r.Request.trace ~label:t.tr_lbl
          ~state:(Request.state_code Request.Cancelled)
          ~reason:"deadline_cancelled" ();
        incr storm)
      late
  end;
  (* a burst of deadline kills in a single sweep = cancellation storm:
     snapshot the flight recorder while the evidence is still in the rings *)
  if !storm >= storm_threshold then
    ignore (Telemetry.Recorder.post_mortem ~reason:"serve.deadline_storm")

(* run one prefill/decode attempt with bounded retry; [rewind] restores
   the pre-attempt KV state so the retried step recomputes from identical
   inputs — the source of the bit-identical-recovery guarantee. [tr] is
   the request's trace id: a retry-with-rewind lands in its causal
   timeline and force-retains the trace (a recovered fault is exactly
   the kind of tail event post-hoc debugging wants the full story for) *)
let with_retries ?tr t ~rewind f =
  let rec go attempt =
    try f ()
    with e when attempt < t.cfg.max_retries ->
      ignore e;
      rewind ();
      Telemetry.Counter.incr t.retries_c;
      (match tr with
      | Some id ->
        Telemetry.Recorder.emit Telemetry.Recorder.Trace_retry ~label:t.tr_lbl
          ~a:id ~b:(attempt + 1);
        Telemetry.Trace.retain ~id ~reason:"fault_retry"
      | None -> ());
      go (attempt + 1)
  in
  go 0

let guard t ~kernel out =
  if t.cfg.check_numerics then
    Tpp_check.finite_2d ~mode:Tpp_check.Full ~kernel (Tensor.view2d out);
  out

let shed t (req : Request.t) ~now_s =
  t.denied_step <- true;
  Telemetry.Counter.incr t.shed_c;
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_shed ~label:t.tr_lbl
    ~a:req.Request.trace ~b:t.eff_batch;
  Telemetry.Trace.retain ~id:req.Request.trace ~reason:"shed";
  if Kv_pool.in_use t.pool = 0 then begin
    (* no cache of this pool is out — not in a session here, nor, on a
       prefill tier, in the handoff or a decode replica — so no release
       can unblock this request; tolerate up to [max_retries] consecutive
       idle denials (the denial may be transient), then refuse — the
       bound preserves liveness *)
    t.idle_denials <- t.idle_denials + 1;
    if t.idle_denials > t.cfg.max_retries then begin
      t.idle_denials <- 0;
      fail_request t req ~now_s ~reason:"shed"
    end
    else begin
      req.Request.state <- Request.Queued;
      t.queue <- req :: t.queue;
      Telemetry.Gauge.set t.queue_g (List.length t.queue)
    end
  end
  else begin
    (* degrade: requeue at the head and shrink the admission window *)
    req.Request.state <- Request.Queued;
    t.queue <- req :: t.queue;
    Telemetry.Gauge.set t.queue_g (List.length t.queue);
    t.eff_batch <- max 1 (t.eff_batch - 1);
    Telemetry.Gauge.set t.eff_batch_g t.eff_batch
  end

(* Speculative-decoding draft setup for a freshly admitted session: a
   private contiguous cache for the draft model, prefilled over the full
   prompt. Failure is non-fatal — the session falls back to greedy
   decoding with [draft = None]. *)
let make_draft t (req : Request.t) =
  match t.draft_llm with
  | None -> None
  | Some d -> (
    let dc = Llm.new_cache ~cap:t.cfg.kv_cap d in
    match
      with_retries ~tr:req.Request.trace t
        ~rewind:(fun () -> Llm.reset_cache dc)
        (fun () ->
          ignore
            (Llm.prefill ?nthreads:t.cfg.nthreads d dc
               (embed t req.Request.prompt)))
    with
    | () -> Some dc
    | exception _ -> None)

(* admit one queued request: acquire KV (prefix-aware and, for a paged
   pool, admission-gated on arena capacity), run the prefill phase over
   the un-shared prompt suffix (with retries), record TTFT; the last
   output row is the request's first token. A prefill tier then pushes a
   request with more tokens to emit to the decode tier; every other
   request joins the batch *)
let admit_one t ~now =
  match pop_next t with
  | None -> `Empty
  | Some req -> (
    let plen = Array.length req.Request.prompt in
    let total_rows = plen + req.Request.new_tokens - 1 in
    match
      Kv_pool.acquire_for t.pool ~owner:req.Request.trace
        ~prompt:req.Request.prompt ~total_rows ()
    with
    | `Denied ->
      shed t req ~now_s:(now ());
      `Denied
    | `Cache (cache, matched) -> (
      t.idle_denials <- 0;
      req.Request.state <- Request.Prefilling;
      let suffix = Array.sub req.Request.prompt matched (plen - matched) in
      let emb = embed t suffix in
      match
        with_retries ~tr:req.Request.trace t
          ~rewind:(fun () -> Llm.truncate_cache cache matched)
          (fun () ->
            (match Fault.fire prefill_site with _ -> ());
            let out =
              Telemetry.Span.with_span ~cat:"serve"
                ~args:[ ("request", float_of_int req.Request.id) ]
                "prefill"
                (fun () -> t.engine.extend cache emb)
            in
            Llm.last_row (guard t ~kernel:"serve.prefill" out))
      with
      | exception _ ->
        (* permanent: retries exhausted *)
        Kv_pool.release t.pool cache;
        fail_request t req ~now_s:(now ());
        `Progress
      | first ->
        (* pin the prompt's full blocks for later prefix hits *)
        Kv_pool.register t.pool ~prompt:req.Request.prompt cache;
        let now_s = now () in
        req.Request.ttft_s <- now_s -. req.Request.arrival_s;
        let ttft_ms = 1000.0 *. req.Request.ttft_s in
        observe2 t t.ttft_h (fun r -> r.r_ttft) ttft_ms;
        Telemetry.Trace.exemplar ~metric:Telemetry.Trace.metric_ttft
          ~value_ms:ttft_ms ~id:req.Request.trace;
        if now_s > Request.deadline_abs req then begin
          incr2 t t.ttft_breach_c (fun r -> r.r_ttft_breach);
          Telemetry.Trace.retain ~id:req.Request.trace ~reason:"ttft_breach"
        end;
        Telemetry.Recorder.emit Telemetry.Recorder.Trace_prefill
          ~label:t.tr_lbl ~a:req.Request.trace ~b:(plen - matched);
        Telemetry.Recorder.emit Telemetry.Recorder.Sched_admit ~label:lbl_sched
          ~a:req.Request.id ~b:(List.length t.queue);
        Request.reset_outputs req;
        Request.push_output req first ~row:0;
        req.Request.state <- Request.Decoding;
        t.tokens <- t.tokens + 1;
        (match t.handoff with
        | Some h when req.Request.new_tokens > 1 -> (
          match h.push req cache ~release:(Kv_pool.release t.pool) with
          | `Ok -> ()
          | `Full | (exception _) ->
            (* refused after the prefill ran: reclaim the cache and fail
               the request — never strand a live cache *)
            Kv_pool.release t.pool cache;
            fail_request t req ~now_s)
        | _ ->
          let s =
            { req; cache; release = Kv_pool.release t.pool; emitted = 1;
              last_token_s = now_s; draft = make_draft t req }
          in
          t.active <- t.active @ [ s ];
          if s.emitted >= req.Request.new_tokens then finish t s ~now_s);
        `Progress))

(* plain greedy decode: one token for session [s] *)
let decode_greedy t (s : session) ~now =
  let pre_len = Llm.cache_len s.cache in
  let id = s.req.Request.gen.(s.emitted - 1) in
  let e = embed t [| id |] in
  match
    with_retries ~tr:s.req.Request.trace t
      ~rewind:(fun () -> Llm.truncate_cache s.cache pre_len)
      (fun () ->
        (match Fault.fire decode_site with _ -> ());
        let out =
          Telemetry.Span.with_span ~cat:"serve"
            ~args:[ ("request", float_of_int s.req.Request.id) ]
            "decode"
            (fun () -> t.engine.extend s.cache e)
        in
        guard t ~kernel:"serve.decode" out)
  with
  | exception _ ->
    Llm.truncate_cache s.cache pre_len;
    fail_session t s ~now_s:(now ())
  | out ->
    let now_s = now () in
    let tpot_ms = 1000.0 *. (now_s -. s.last_token_s) in
    observe2 t t.tpot_h (fun r -> r.r_tpot) tpot_ms;
    Telemetry.Trace.exemplar ~metric:Telemetry.Trace.metric_tpot
      ~value_ms:tpot_ms ~id:s.req.Request.trace;
    Telemetry.Recorder.emit Telemetry.Recorder.Trace_decode ~label:t.tr_lbl
      ~a:s.req.Request.trace
      ~b:(List.length t.active);
    s.last_token_s <- now_s;
    Request.push_output s.req out ~row:0;
    s.emitted <- s.emitted + 1;
    t.tokens <- t.tokens + 1;
    if s.emitted >= s.req.Request.new_tokens then finish t s ~now_s

(* Speculative round for session [s] against draft cache [dc]:

     1. catch up the draft (it lags the target by the tokens the last
        round accepted beyond its own proposals);
     2. run [rows-1] draft decode steps; each proposes the next input —
        the true generator id when the acceptance draw passes, a
        deliberately wrong id otherwise (there is no LM head: proposal
        quality is modelled, the compute is real);
     3. verify all [rows] inputs in ONE batched target [extend] — row j
        of the output is bit-identical to the j'th greedy decode step
        provided inputs 0..j are true (causal attention: later wrong
        inputs cannot pollute earlier rows);
     4. accept the longest true prefix (row 0's input is the known last
        token, so every round emits at least one token) and roll both
        caches back over the rejected tail — paged storage frees the
        tail blocks.

   The whole round sits in one retry scope whose rewind restores both
   cache lengths, so a mid-round fault recovers bit-identically. *)
let decode_spec t (s : session) dc ~now =
  let req = s.req in
  let pre = Llm.cache_len s.cache in
  let d_start = Llm.cache_len dc in
  let e0 = s.emitted in
  let remaining = req.Request.new_tokens - e0 in
  let rows = 1 + min t.cfg.spec_k (remaining - 1) in
  let inputs = Array.make rows 0 in
  inputs.(0) <- req.Request.gen.(e0 - 1);
  let d = Option.get t.draft_llm in
  match
    with_retries ~tr:req.Request.trace t
      ~rewind:(fun () ->
        Llm.truncate_cache s.cache pre;
        Llm.truncate_cache dc d_start)
      (fun () ->
        (match Fault.fire decode_site with _ -> ());
        (* draft catch-up: append the true tokens the draft missed *)
        if d_start < pre then begin
          let ids =
            Array.init (pre - d_start) (fun k -> token_at req (d_start + k))
          in
          ignore (Llm.extend ?nthreads:t.cfg.nthreads d dc (embed t ids))
        end;
        (* propose: draft decode steps (output discarded — acceptance is
           drawn deterministically, the compute models the draft cost) *)
        for j = 0 to rows - 2 do
          ignore
            (Llm.decode_step ?nthreads:t.cfg.nthreads d dc
               (embed t [| inputs.(j) |]));
          let truth = req.Request.gen.(e0 + j) in
          inputs.(j + 1) <-
            (if accept_draw ~id:req.Request.id ~pos:(e0 + j)
               < t.cfg.spec_accuracy
             then truth
             else truth + 1)
        done;
        (* verify: one batched prefill-style pass over all proposals *)
        let out =
          Telemetry.Span.with_span ~cat:"serve"
            ~args:[ ("request", float_of_int req.Request.id) ]
            "spec_verify"
            (fun () -> t.engine.extend s.cache (embed t inputs))
        in
        guard t ~kernel:"serve.spec_verify" out)
  with
  | exception _ ->
    Llm.truncate_cache s.cache pre;
    Llm.truncate_cache dc d_start;
    fail_session t s ~now_s:(now ())
  | out ->
    (* longest prefix of true inputs; row 0 is always true *)
    let a = ref 1 in
    while !a < rows && inputs.(!a) = req.Request.gen.(e0 - 1 + !a) do
      incr a
    done;
    let a = !a in
    (* roll back the rejected tail on both caches (frees tail blocks);
       the draft keeps only proposals the target confirmed *)
    Llm.truncate_cache s.cache (pre + a);
    Llm.truncate_cache dc (pre + min a (rows - 1));
    Telemetry.Counter.add t.spec_proposed_c (rows - 1);
    Telemetry.Counter.add t.spec_accepted_c (a - 1);
    Telemetry.Counter.add t.spec_rejected_c (rows - a);
    Telemetry.Recorder.emit Telemetry.Recorder.Trace_spec ~label:t.tr_lbl
      ~a:req.Request.trace ~b:(a - 1);
    let now_s = now () in
    let dt_ms = 1000.0 *. (now_s -. s.last_token_s) /. float_of_int a in
    Telemetry.Trace.exemplar ~metric:Telemetry.Trace.metric_tpot
      ~value_ms:dt_ms ~id:req.Request.trace;
    for j = 0 to a - 1 do
      observe2 t t.tpot_h (fun r -> r.r_tpot) dt_ms;
      Request.push_output s.req out ~row:j
    done;
    s.last_token_s <- now_s;
    s.emitted <- s.emitted + a;
    t.tokens <- t.tokens + a;
    if s.emitted >= req.Request.new_tokens then finish t s ~now_s

(* one decode round for every active session (continuous batching):
   greedy sessions advance one token, speculative sessions advance by
   their accepted prefix (at least one) *)
let decode_round t ~now =
  match t.active with
  | [] -> false
  | sessions ->
    Telemetry.Recorder.emit Telemetry.Recorder.Sched_decode ~label:lbl_sched
      ~a:(List.length sessions) ~b:t.tokens;
    List.iter
      (fun s ->
        (* the snapshot may contain sessions retired earlier this round *)
        if s.req.Request.state = Request.Decoding then
          match s.draft with
          | Some dc -> decode_spec t s dc ~now
          | None -> decode_greedy t s ~now)
      sessions;
    true

let step t ~now =
  t.denied_step <- false;
  sweep_deadlines t ~now_s:(now ());
  (* a prefill tier admits one request a step, and none while the
     handoff has no room: a router step then interleaves one prefill with
     each decode replica's round *)
  let may_admit did =
    List.length t.active < t.eff_batch
    && match t.handoff with None -> true | Some h -> (not did) && h.room ()
  in
  let rec admit did =
    if may_admit did then
      match admit_one t ~now with
      | `Progress -> admit true
      | `Empty -> did
      | `Denied -> true (* stop admitting this step; shedding already done *)
    else did
  in
  let admitted = admit false in
  let decoded = decode_round t ~now in
  (* shed recovery: a run of denial-free steps earns the window back *)
  if t.denied_step then t.clean <- 0
  else if t.eff_batch < t.cfg.max_batch then begin
    t.clean <- t.clean + 1;
    if t.clean >= recovery_steps then begin
      t.clean <- 0;
      t.eff_batch <- t.eff_batch + 1;
      Telemetry.Gauge.set t.eff_batch_g t.eff_batch
    end
  end;
  admitted || decoded

let drain t ~now =
  while busy t do
    ignore (step t ~now)
  done

(* ---- cluster hooks: KV handoff adoption and quarantine eviction ---- *)

(* Adopt a session whose prefill already ran elsewhere (prefill/decode
   disaggregation): the request arrives Decoding with its first token in
   [outputs] and a filled [cache]; [release] returns the cache to its
   owning (prefill-side) pool on retirement. The prefill side already
   counted the submission, TTFT and first token, so adoption only takes
   over the decode loop — it bumps neither [submitted] nor [tokens]. *)
let adopt t ~now ~release (req : Request.t) cache =
  if List.length t.active >= t.eff_batch then `Full
  else begin
    assert (req.Request.state = Request.Decoding);
    t.ledger <- req :: t.ledger;
    (* adopted sessions decode greedily: the draft model would have to
       re-prefill the whole prompt this replica never saw *)
    let s =
      { req; cache; release; emitted = 1; last_token_s = now; draft = None }
    in
    t.active <- t.active @ [ s ];
    if s.emitted >= req.Request.new_tokens then finish t s ~now_s:now;
    `Adopted
  end

(* Evict every queued (not yet admitted) request, removing it from the
   ledger as well — the quarantine path: a router re-routes the returned
   requests to healthy replicas, where re-submission re-enters them into
   that replica's ledger. In-flight sessions keep decoding (the batch
   drains); the KV caches never move. *)
let evict_queued t =
  let q = t.queue in
  t.queue <- [];
  Telemetry.Gauge.set t.queue_g 0;
  t.ledger <- List.filter (fun r -> not (List.memq r q)) t.ledger;
  q

(* ---- live migration: checkpoint/restore of in-flight sessions ---- *)

(* A detached session: everything another replica needs to resume the
   decode mid-flight. The decode position is rng-free — greedy decode
   reads only [gen.(emitted-1)] and the cache, and the pre-drawn [gen]
   ids travel inside the request — so resuming elsewhere replays the
   exact token stream. [d_export] is the one live copy of the KV state
   between detach and a successful destination import; [d_release] frees
   the source cache exactly once (idempotent), and the migration driver
   calls it only after the destination commits (or the migration fails
   terminally) — never before. *)
type detached = {
  d_req : Request.t;
  d_emitted : int;
  d_export : Kv.Block_manager.export;
  d_release : unit -> unit;
}

(* Detach the oldest in-flight session: snapshot its valid KV rows into
   a dense arena-independent export (a pure read), remove it from the
   active set AND the ledger (the destination's resume re-enters it), and
   package it for the router. [before_export] is the migration driver's
   fault hook (the [cluster.migrate.export] site): if it raises, the
   session fails in place — terminal, still ledgered, cache released —
   and is reported as [`Failed]; the fleet never silently loses it. *)
let detach_next ?(before_export = fun () -> ()) t ~now_s =
  match t.active with
  | [] -> `Empty
  | s :: _ -> (
    match before_export () with
    | exception _ ->
      fail_session t s ~now_s;
      `Failed s.req
    | () ->
      let d_export = Llm.export_cache s.cache in
      let released = ref false in
      let d_release () =
        if not !released then begin
          released := true;
          s.release s.cache
        end
      in
      t.active <- List.filter (fun x -> x != s) t.active;
      t.ledger <- List.filter (fun r -> r != s.req) t.ledger;
      Telemetry.Recorder.emit Telemetry.Recorder.Trace_detach ~label:t.tr_lbl
        ~a:s.req.Request.trace ~b:s.emitted;
      Telemetry.Trace.retain ~id:s.req.Request.trace ~reason:"migrated";
      (* the draft cache is dropped: a resumed session decodes greedily,
         which emits the same tokens by the spec-decode invariant *)
      `Detached { d_req = s.req; d_emitted = s.emitted; d_export; d_release })

(* Resume a detached session mid-decode — the destination half of a
   migration, and its commit point. The KV snapshot is imported through
   the pool (prefix re-attach + admission gating); only on success does
   the session enter the active set and the ledger, at its saved decode
   position, through the same machinery [adopt] uses. Bumps neither
   [submitted] nor [tokens] — both were counted where they happened.
   [`Full]/[`Denied] (and an exception from [before_import], the
   [cluster.migrate.import] fault hook) leave this replica untouched and
   the caller's package intact, so the export snapshot remains the one
   live copy and the router can retry elsewhere. *)
let resume ?(before_import = fun () -> ()) t ~now (d : detached) =
  if List.length t.active >= t.eff_batch then `Full
  else begin
    before_import ();
    let req = d.d_req in
    let plen = Array.length req.Request.prompt in
    let total_rows = plen + req.Request.new_tokens - 1 in
    match
      Kv_pool.import t.pool ~owner:req.Request.trace ~prompt:req.Request.prompt
        ~total_rows d.d_export
    with
    | `Denied -> `Denied
    | `Cache cache ->
      assert (req.Request.state = Request.Decoding);
      Telemetry.Recorder.emit Telemetry.Recorder.Trace_import ~label:t.tr_lbl
        ~a:req.Request.trace ~b:d.d_export.Kv.Block_manager.xrows;
      Telemetry.Recorder.emit Telemetry.Recorder.Trace_resume ~label:t.tr_lbl
        ~a:req.Request.trace
        ~b:(Option.value t.cfg.replica ~default:(-1));
      (* re-pin the prompt's full blocks in this replica's trie *)
      Kv_pool.register t.pool ~prompt:req.Request.prompt cache;
      t.ledger <- req :: t.ledger;
      let s =
        { req; cache; release = Kv_pool.release t.pool;
          emitted = d.d_emitted; last_token_s = now; draft = None }
      in
      t.active <- t.active @ [ s ];
      if s.emitted >= req.Request.new_tokens then finish t s ~now_s:now;
      `Resumed
  end

(* Health probe: one single-token engine extend on a private scratch
   cache (bypassing the pool, so admission pressure cannot fail it),
   checked finite — the "successful no-op step" a router demands before
   letting a quarantined or restarted replica rejoin the rotation. *)
let probe t =
  match
    let cache = Llm.new_cache ~cap:4 t.llm in
    let out = t.engine.extend cache (embed t [| 0 |]) in
    Tensor.get out [| 0; 0 |]
  with
  | x -> Float.is_finite x
  | exception _ -> false
