(** Live metrics plane: interval snapshots of the counter and gauge
    stores, per-counter deltas/rates between snapshots, rendered as one
    JSON object per line (the [Cluster.Driver] live-metrics stream). *)

type snapshot = {
  at_s : float;  (** {!Clock.now_s} at capture *)
  counters : (string * int) list;
  gauges : (string * int) list;
}

val take : unit -> snapshot

(** Per-counter increase from [prev] to [snap]; counters that did not
    exist in [prev] count from zero. *)
val deltas : prev:snapshot -> snapshot -> (string * int) list

(** One JSON line (no trailing newline): [at_s], [counters], [gauges],
    and — when [prev] is given — [interval_s], [deltas] and per-second
    [rates]. Always valid JSON per {!Json_check}. *)
val jsonl : ?prev:snapshot -> snapshot -> string
