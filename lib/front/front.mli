(** Command-line front end of the serving stack, shared by the
    [parlooper] CLI ([serve], [chaos]) and the bench harness ([--serve],
    [--chaos]). One cmdliner term per concern builds the library's own
    config records, and each option has one name and one default, taken
    from those records. One run function per mode runs a config, prints
    its report and applies the failure checks.

    A value out of range (a count below 1, an unknown placement, a plan
    that does not parse, [--hard-kill] with one replica, ...) is a
    cmdliner error: it prints one message, and {!eval} exits 1. *)

(** A real-time serve run. *)
type serve = {
  load : Serve.Load_gen.config;
  fleet : Cluster.Router.config;
  hard_kill : bool;  (** hard-kill replica 1 at half the duration *)
  live_metrics : string option;  (** JSON-lines stream; ["-"] = stdout *)
  live_interval_ms : int;
  trace_dir : string option;  (** dump retained causal traces here *)
  trace_sample : int;  (** keep about one in N healthy requests' traces *)
}

(** The load ([--seed], [--rate], [--duration], [--prompt-min], ...,
    defaults {!Serve.Load_gen.default}), the fleet ([--replicas], default
    1, [--shards], [--placement], ..., defaults
    {!Cluster.Router.default_config}) with its scheduler ([--max-batch],
    [--paged], [--spec-decode], ..., defaults
    {!Serve.Scheduler.default_config}), and the run's [--hard-kill],
    live-metrics and trace-dump options. *)
val serve_config : serve Cmdliner.Term.t

(** A chaos run: [--seed], [--requests], [--plan], [--hard-kill],
    [--sys-prompt] (the shared prefix), the fleet's shape and the
    scheduler's KV and speculation options. The scenario is
    {!Cluster.Chaos.solo} for one replica, {!Cluster.Chaos.default} (a
    mid-run quarantine) for more, and {!Cluster.Chaos.hard_kill} with
    [--hard-kill]; the options override its fields. With no option it is
    {!Cluster.Chaos.solo}. *)
val chaos_config : Cluster.Chaos.config Cmdliner.Term.t

(** Serve [Llm.tiny] through the fleet under the load, in real time,
    and print the fleet, replica, KV and spec-cache report. Returns the
    driver's outcome and every counter's increase over the run
    ({!Telemetry.Expose.deltas}); the report's KV totals are such
    increases too, so nothing that ran earlier in the process counts.
    Exits 1 if the fleet cannot be built. *)
val serve : serve -> Cluster.Driver.outcome * (string * int) list

(** Run the chaos harness and print its report. [false] (with one
    message each on stderr) if an invariant was violated, if the plan
    injected no fault, if a hard kill completed no migration, or if a
    disaggregated fleet adopted no session: each makes the run prove
    nothing. *)
val chaos : Cluster.Chaos.config -> Cluster.Chaos.report * bool

(** [--telemetry] (print the registry report) and [--trace FILE] (write
    a Chrome trace_event timeline). *)
type telemetry = { report : bool; trace : string option }

val telemetry : telemetry Cmdliner.Term.t

(** [with_telemetry t f] runs [f] with the telemetry registry reset and
    enabled when [t] asks for a report or a trace, then prints the
    report (achieved GFLOPS against [peak_gflops], the host's FP32 peak
    by default) and writes the trace. *)
val with_telemetry : ?peak_gflops:float -> telemetry -> (unit -> 'a) -> 'a

(** Evaluate a command line: 0 when it ran or printed its help, 1 on any
    error. *)
val eval : unit Cmdliner.Cmd.t -> int
