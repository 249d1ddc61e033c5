(** Open-loop real-time replay of a load trace against a {!Router}
    fleet — a lone scheduler is a 1-replica fleet: arrivals are submitted
    when the serving clock reaches their timestamp regardless of backlog,
    then the loop iterates until the trace is exhausted and the fleet
    drains. Optionally doubles as the live metrics plane, streaming
    periodic {!Telemetry.Expose} snapshots while serving. The final
    summary is fleet-merged ({!Serve.Metrics.collect_fleet} over every
    replica's histograms) and [per_replica] carries each replica's own
    cut from its [serve.r<i>.*] telemetry. *)

(** Live-metrics stream: one {!Telemetry.Expose.jsonl} line to [out]
    every [every_s] seconds, plus a final line after the drain. *)
type live = { every_s : float; out : out_channel }

type outcome = {
  summary : Serve.Metrics.summary;  (** fleet rollup, merged histograms *)
  per_replica : (int * Serve.Metrics.summary) list;
      (** decode replicas 0..N-1, plus the prefill replica when
          disaggregated *)
  requests : Serve.Request.t list;  (** router ledger, oldest first *)
  snapshots : int;  (** live JSONL lines written; 0 when [live] absent *)
}

(** [run ?live ?hard_kill router trace] — [trace] must be
    arrival-time-sorted. Blocks until the fleet drains.
    [hard_kill = (at_s, replica)] hard-fails [replica]
    ({!Router.hard_fail}) once the wall clock passes [at_s]: its
    in-flight sessions live-migrate to the survivors and the migration
    counters are printed after the drain. *)
val run :
  ?live:live ->
  ?hard_kill:float * int ->
  Router.t ->
  (float * Serve.Request.t) list ->
  outcome
