(* Open-loop replay of a load-generator trace against a router fleet in
   real time: arrivals are submitted when the serving clock reaches their
   timestamp (whether or not the fleet is keeping up — that is what makes
   the load "open loop" and the queue/SLO numbers honest), and the loop
   spins through fleet iterations until the trace is exhausted and every
   replica drains. A lone scheduler is a 1-replica fleet.

   With [live] set, the driver doubles as the live metrics plane: every
   [every_s] seconds it writes one Telemetry.Expose.jsonl line (counters,
   gauges, and deltas/rates vs the previous snapshot) to [out], plus one
   final line after the drain — so a run of any length produces at least
   interval + final snapshots, and the last line's absolute values agree
   with the end-of-run report.

   The final report is fleet-merged (Metrics.collect_fleet over every
   replica's histograms) and each replica also gets its own summary cut
   from its serve.r<i>.* telemetry — never the other way around. *)

type live = { every_s : float; out : out_channel }

type outcome = {
  summary : Serve.Metrics.summary;  (* fleet rollup, merged histograms *)
  per_replica : (int * Serve.Metrics.summary) list;
  requests : Serve.Request.t list;  (* router ledger, oldest first *)
  snapshots : int;
}

let replica_summary i sched ~elapsed_s =
  let base =
    Serve.Metrics.collect
      ~requests:(Serve.Scheduler.requests sched)
      ~tokens:(Serve.Scheduler.tokens_emitted sched)
      ~elapsed_s
  in
  { base with
    Serve.Metrics.ttft_ms =
      Serve.Metrics.percentiles_of
        (Telemetry.Histogram.find_or_create
           (Serve.Metrics.replica_ttft_ms_name i));
    tpot_ms =
      Serve.Metrics.percentiles_of
        (Telemetry.Histogram.find_or_create
           (Serve.Metrics.replica_tpot_ms_name i)) }

let run ?live ?hard_kill router trace =
  let t0 = Telemetry.Clock.now_s () in
  let now () = Telemetry.Clock.now_s () -. t0 in
  let pending = ref trace in
  let killed = ref false in
  let maybe_kill () =
    match hard_kill with
    | Some (at, replica) when (not !killed) && now () >= at ->
      killed := true;
      Printf.printf
        "hard-killing replica %d at t=%.2fs: migrating its in-flight \
         sessions\n%!"
        replica (now ());
      (* pin the kill instant into the flight recorder so a trace dump
         shows which spans straddle the failover *)
      Telemetry.Recorder.mark ~label:(Telemetry.Trace.replica_label replica);
      Router.hard_fail router ~now:(now ()) replica
    | _ -> ()
  in
  let snapshots = ref 0 in
  let prev = ref None in
  let last_emit = ref 0.0 in
  let emit_snapshot () =
    match live with
    | None -> ()
    | Some l ->
      let snap = Telemetry.Expose.take () in
      output_string l.out (Telemetry.Expose.jsonl ?prev:!prev snap);
      output_char l.out '\n';
      flush l.out;
      prev := Some snap;
      incr snapshots;
      last_emit := now ()
  in
  let maybe_emit () =
    match live with
    | None -> ()
    | Some l ->
      if now () -. !last_emit >= l.every_s then emit_snapshot ()
  in
  let submit_due () =
    let t = now () in
    let rec go () =
      match !pending with
      | (at, req) :: rest when at <= t ->
        ignore (Router.submit router ~now:t req);
        pending := rest;
        go ()
      | _ -> ()
    in
    go ()
  in
  let rec loop () =
    submit_due ();
    maybe_kill ();
    let worked = Router.step router ~now in
    maybe_emit ();
    if !pending <> [] || Router.busy router then begin
      (* idle gap before the next arrival: yield rather than burn *)
      if not worked then Domain.cpu_relax ();
      loop ()
    end
  in
  loop ();
  emit_snapshot ();
  if !killed then
    Printf.printf
      "failover: %d migrations started, %d completed, %d failed\n%!"
      (Telemetry.Counter.value Router.migrations_started_name)
      (Telemetry.Counter.value Router.migrations_completed_name)
      (Telemetry.Counter.value Router.migrations_failed_name);
  let elapsed = now () in
  let requests = Router.requests router in
  let tokens = Router.tokens_emitted router in
  let replicas = Router.replica_indices router in
  { summary =
      Serve.Metrics.collect_fleet ~replicas ~requests ~tokens
        ~elapsed_s:elapsed;
    per_replica =
      List.map
        (fun i ->
          if i < Array.length (Router.schedulers router) then
            (i, replica_summary i (Router.schedulers router).(i) ~elapsed_s:elapsed)
          else
            (* prefill replica: ledger lives in the prefiller *)
            let base =
              match Router.prefiller router with
              | Some p ->
                Serve.Metrics.collect
                  ~requests:(Prefiller.requests p)
                  ~tokens:(Prefiller.tokens_emitted p) ~elapsed_s:elapsed
              | None ->
                Serve.Metrics.collect ~requests:[] ~tokens:0
                  ~elapsed_s:elapsed
            in
            ( i,
              { base with
                Serve.Metrics.ttft_ms =
                  Serve.Metrics.percentiles_of
                    (Telemetry.Histogram.find_or_create
                       (Serve.Metrics.replica_ttft_ms_name i));
                tpot_ms =
                  Serve.Metrics.percentiles_of
                    (Telemetry.Histogram.find_or_create
                       (Serve.Metrics.replica_tpot_ms_name i)) } ))
        replicas;
    requests;
    snapshots = !snapshots }
