(* Dedicated prefill replica for prefill/decode disaggregation: runs only
   the compute-bound first-token phase, then hands the finished KV state
   to the decode tier through a Kv_handoff channel. It owns its own
   Kv_pool — the handoff transfers cache ownership, and the exactly-once
   release stored with each entry brings the cache back here when the
   decode side retires the session.

   Accounting split: the prefiller counts the submission, the TTFT and
   the first token (it produced them); the decode replica that adopts the
   session counts everything from the second token on. Together the two
   ledgers cover each request exactly once — the conservation invariant
   the cluster chaos harness checks. *)

(* fires ahead of the model call: Exn = prefill transient (fails the
   request — the prefiller does not retry; retry-with-rewind lives in the
   decode tier's scheduler) *)
let prefill_site = Fault.site "cluster.prefill"

(* consecutive KV denials tolerated while nothing could possibly release
   a cache back; beyond this the head request fails instead of spinning *)
let max_idle_denials = 8

type config = {
  max_queue : int;
  kv_cap : int;
  max_live : int;
  replica : int;  (* telemetry index: serve.r<replica>.* *)
}

let default_config = { max_queue = 64; kv_cap = 16; max_live = 8; replica = 0 }

type t = {
  llm : Llm.t;
  cfg : config;
  engine : Serve.Scheduler.engine;
  pool : Serve.Kv_pool.t;
  handoff : Kv_handoff.t;
  tr_lbl : int;  (* causal-trace lane label: "replica:<replica>" *)
  mutable queue : Serve.Request.t list;  (* oldest first *)
  mutable ledger : Serve.Request.t list;  (* newest first *)
  mutable tokens : int;
  mutable idle_denials : int;
  ttft_h : Telemetry.Histogram.t;
  r_ttft_h : Telemetry.Histogram.t;
  submitted_c : Telemetry.Counter.t;
  r_submitted_c : Telemetry.Counter.t;
  rejected_c : Telemetry.Counter.t;
  r_rejected_c : Telemetry.Counter.t;
  completed_c : Telemetry.Counter.t;
  r_completed_c : Telemetry.Counter.t;
  failed_c : Telemetry.Counter.t;
  r_failed_c : Telemetry.Counter.t;
  ttft_breach_c : Telemetry.Counter.t;
  r_ttft_breach_c : Telemetry.Counter.t;
  deadline_breach_c : Telemetry.Counter.t;
  r_deadline_breach_c : Telemetry.Counter.t;
}

let create ?(config = default_config) ?engine
    ?(policy = Serve.Kv_pool.Contiguous) llm ~handoff =
  let engine =
    match engine with
    | Some e -> e
    | None ->
      { Serve.Scheduler.extend = (fun cache emb -> Llm.extend llm cache emb) }
  in
  let c = Telemetry.Counter.find_or_create in
  let h = Telemetry.Histogram.find_or_create in
  let i = config.replica in
  { llm; cfg = config; engine;
    pool =
      Serve.Kv_pool.create ~init_cap:config.kv_cap ~max_live:config.max_live
        ~policy llm;
    handoff; tr_lbl = Telemetry.Trace.replica_label i;
    queue = []; ledger = []; tokens = 0; idle_denials = 0;
    ttft_h = h Serve.Metrics.ttft_ms_name;
    r_ttft_h = h (Serve.Metrics.replica_ttft_ms_name i);
    submitted_c = c Serve.Metrics.submitted_name;
    r_submitted_c = c (Serve.Metrics.replica_submitted_name i);
    rejected_c = c Serve.Metrics.rejected_name;
    r_rejected_c = c (Serve.Metrics.replica_rejected_name i);
    completed_c = c Serve.Metrics.completed_name;
    r_completed_c = c (Serve.Metrics.replica_completed_name i);
    failed_c = c Serve.Metrics.failed_name;
    r_failed_c = c (Serve.Metrics.replica_failed_name i);
    ttft_breach_c = c Serve.Metrics.slo_ttft_breaches_name;
    r_ttft_breach_c = c (Serve.Metrics.replica_slo_ttft_breaches_name i);
    deadline_breach_c = c Serve.Metrics.slo_deadline_breaches_name;
    r_deadline_breach_c = c (Serve.Metrics.replica_slo_deadline_breaches_name i)
  }

let pool t = t.pool
let queue_depth t = List.length t.queue
let busy t = t.queue <> []
let tokens_emitted t = t.tokens
let requests t = List.rev t.ledger

let incr2 a b =
  Telemetry.Counter.incr a;
  Telemetry.Counter.incr b

let submit t ~now (req : Serve.Request.t) =
  req.Serve.Request.arrival_s <- now;
  t.ledger <- req :: t.ledger;
  incr2 t.submitted_c t.r_submitted_c;
  Telemetry.Recorder.emit Telemetry.Recorder.Trace_queued ~label:t.tr_lbl
    ~a:req.Serve.Request.trace
    ~b:(List.length t.queue);
  if
    req.Serve.Request.deadline_s <= 0.0
    || List.length t.queue >= t.cfg.max_queue
  then begin
    if req.Serve.Request.deadline_s <= 0.0 then
      incr2 t.deadline_breach_c t.r_deadline_breach_c;
    req.Serve.Request.state <- Serve.Request.Rejected;
    incr2 t.rejected_c t.r_rejected_c;
    Telemetry.Trace.terminal ~id:req.Serve.Request.trace ~label:t.tr_lbl
      ~state:(Serve.Request.state_code Serve.Request.Rejected)
      ~reason:"rejected" ();
    false
  end
  else begin
    req.Serve.Request.state <- Serve.Request.Queued;
    t.queue <- t.queue @ [ req ];
    true
  end

let fail t (req : Serve.Request.t) ~now_s =
  req.Serve.Request.state <- Serve.Request.Failed;
  req.Serve.Request.finish_s <- now_s -. req.Serve.Request.arrival_s;
  incr2 t.failed_c t.r_failed_c;
  Telemetry.Trace.terminal ~id:req.Serve.Request.trace ~label:t.tr_lbl
    ~state:(Serve.Request.state_code Serve.Request.Failed)
    ~reason:"failed" ()

(* single-token request: the prefill IS the whole serve — finish here,
   the decode tier never sees it *)
let finish_now t (req : Serve.Request.t) cache ~now_s =
  req.Serve.Request.state <- Serve.Request.Finished;
  req.Serve.Request.finish_s <- now_s -. req.Serve.Request.arrival_s;
  Serve.Kv_pool.release t.pool cache;
  incr2 t.completed_c t.r_completed_c;
  let breached = not (Serve.Request.met_deadline req) in
  if breached then incr2 t.deadline_breach_c t.r_deadline_breach_c;
  Telemetry.Trace.terminal ~id:req.Serve.Request.trace ~label:t.tr_lbl
    ~state:(Serve.Request.state_code Serve.Request.Finished)
    ?reason:(if breached then Some "deadline_breach" else None)
    ()

(* Run at most one prefill: pop the head, acquire KV, prefill, hand off.
   Returns false when nothing could progress (empty queue, handoff full,
   or a tolerated KV denial). *)
let step t ~now =
  match t.queue with
  | [] -> false
  | req :: rest ->
    if Kv_handoff.is_full t.handoff then false
    else begin
      let prompt = req.Serve.Request.prompt in
      let total_rows =
        Array.length prompt + req.Serve.Request.new_tokens - 1
      in
      match
        Serve.Kv_pool.acquire_for t.pool ~owner:req.Serve.Request.trace
          ~prompt ~total_rows ()
      with
      | `Denied ->
        (* a denial can only clear once an in-flight cache is released;
           if nothing is in flight anywhere downstream, fail the head
           request after a bounded number of attempts (liveness) *)
        t.idle_denials <- t.idle_denials + 1;
        if
          t.idle_denials > max_idle_denials
          && Serve.Kv_pool.in_use t.pool = 0
          && Kv_handoff.depth t.handoff = 0
        then begin
          t.idle_denials <- 0;
          t.queue <- rest;
          fail t req ~now_s:(now ());
          true
        end
        else false
      | `Cache (cache, matched) -> (
        t.idle_denials <- 0;
        t.queue <- rest;
        req.Serve.Request.state <- Serve.Request.Prefilling;
        (* a prefix-trie hit pre-seeded [matched] prompt rows from shared
           blocks — only the suffix needs compute *)
        let suffix =
          Array.sub prompt matched (Array.length prompt - matched)
        in
        let emb = Llm.embed t.llm suffix in
        match
          (match Fault.fire prefill_site with _ -> ());
          Llm.last_row (t.engine.Serve.Scheduler.extend cache emb)
        with
        | exception _ ->
          Serve.Kv_pool.release t.pool cache;
          fail t req ~now_s:(now ());
          true
        | first ->
          Serve.Kv_pool.register t.pool ~prompt cache;
          let now_s = now () in
          req.Serve.Request.ttft_s <- now_s -. req.Serve.Request.arrival_s;
          let ms = 1000.0 *. req.Serve.Request.ttft_s in
          Telemetry.Histogram.observe t.ttft_h ms;
          Telemetry.Histogram.observe t.r_ttft_h ms;
          Telemetry.Trace.exemplar ~metric:Telemetry.Trace.metric_ttft
            ~value_ms:ms ~id:req.Serve.Request.trace;
          if now_s > Serve.Request.deadline_abs req then begin
            incr2 t.ttft_breach_c t.r_ttft_breach_c;
            Telemetry.Trace.retain ~id:req.Serve.Request.trace
              ~reason:"ttft_breach"
          end;
          Telemetry.Recorder.emit Telemetry.Recorder.Trace_prefill
            ~label:t.tr_lbl ~a:req.Serve.Request.trace
            ~b:(Array.length prompt - matched);
          Serve.Request.reset_outputs req;
          Serve.Request.push_output req first ~row:0;
          req.Serve.Request.state <- Serve.Request.Decoding;
          t.tokens <- t.tokens + 1;
          if req.Serve.Request.new_tokens <= 1 then
            finish_now t req cache ~now_s
          else begin
            match
              Kv_handoff.push t.handoff ~req ~cache
                ~release:(Serve.Kv_pool.release t.pool)
            with
            | `Ok -> ()
            | `Full | (exception _) ->
              (* channel refused after the prefill ran: reclaim the cache
                 and fail the request — never strand a live cache *)
              Serve.Kv_pool.release t.pool cache;
              fail t req ~now_s
          end;
          true)
    end
