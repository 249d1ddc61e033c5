(* The one check every chaos cell runs, shared by the cluster suite's
   cell table and the serve suite's lone-scheduler cells.

   A cell runs the one harness twice with the same seed. The check
   holds it to the conservation invariants and to the solo-replay
   oracle, and derives what the cell must additionally show from its
   config: a disaggregated fleet adopts sessions over the handoff, a
   paged arena is used (and shares the prefix, when it spans a block), a
   quarantine re-routes queued work, and a hard kill completes
   migrations that the trace joins record. The second run must repeat
   the fault schedule and the ledger; the watchdog counters are
   wall-clock and may not. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let check (config : Cluster.Chaos.config) () =
  let open Cluster.Chaos in
  Telemetry.Registry.reset ();
  Telemetry.Registry.disable ();
  Telemetry.Recorder.set_enabled true;
  let r = run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.violations;
  checkb "faults fired" true (r.injected > 0);
  checki "ledger conserved" r.submitted
    (r.finished + r.rejected + r.cancelled + r.failed);
  checki "no double release" 0 r.double_released;
  checki "no identity mismatch" 0 r.mismatched;
  checki "all finished compared" r.finished r.compared;
  checki "every ledgered request trace-checked" r.submitted r.traces_checked;
  checki "none vanished in transit" r.migrations_started
    (r.migrations_completed + r.migrations_failed);
  if config.disaggregate then
    checkb "handoff adoptions happened" true (r.adopted > 0);
  if config.scheduler.Serve.Scheduler.paged then begin
    checkb "arena was used" true (r.pages_allocated > 0);
    (* the prefix trie shares full blocks only *)
    if config.shared_prefix >= config.scheduler.Serve.Scheduler.block_size
    then
      checkb "prefix sharing happened" true (r.prefix_hits > 0)
  end;
  (* a disaggregated fleet queues in the prefill tier, so the decode
     replica has nothing queued to re-route when it is quarantined *)
  if config.quarantine_step >= 0 && not config.disaggregate then
    checkb "quarantine exercised the reroute path" true (r.rerouted > 0);
  if config.hard_kill_step >= 0 then begin
    checkb "migrations completed" true (r.migrations_completed > 0);
    checkb "migrated sessions traced across the join" true
      (r.migrated_traced > 0)
  end;
  let b = run ~config () in
  Alcotest.(check (list string)) "no violations (2nd)" [] b.violations;
  checki "same injected" r.injected b.injected;
  checki "same submitted" r.submitted b.submitted;
  checki "same finished" r.finished b.finished;
  checki "same cancelled" r.cancelled b.cancelled;
  checki "same failed" r.failed b.failed;
  checki "same compared" r.compared b.compared;
  checki "same mismatched" r.mismatched b.mismatched;
  checki "same rerouted" r.rerouted b.rerouted;
  checki "same migrations" r.migrations_completed b.migrations_completed
