(** Request-scoped causal tracing over the flight recorder.

    Serving-layer seams emit {!Recorder} events of the [Trace_*] class
    with the request's trace id in operand [a]; this module holds the
    off-hot-path pieces: the tail-based sampling policy (retain a full
    timeline only for requests that breached an SLO, hit a fault site,
    were shed or migrated, plus a seeded 1-in-N baseline), exemplars
    linking TTFT/TPOT histogram buckets to a retained trace id, and the
    assembler that stitches per-thread rings into per-request causal
    timelines (text + Chrome, one process lane per replica). *)

(** Exemplar metric keys used by the serving layer. *)
val metric_ttft : string

val metric_tpot : string

val is_trace_kind : Recorder.kind -> bool

(** {1 Lane labels}

    Interned recorder labels. [replica_label i] is ["replica:<i>"] — the
    convention {!Recorder.trace_of_events} renders as a per-replica
    Chrome process lane. *)

val replica_label : int -> int

val solo_label : int
val router_label : int

(** {1 Tail-based sampling} *)

(** Retain 1 in [n] non-breaching requests as a baseline sample
    (default 16; 0 disables the baseline entirely). *)
val set_baseline : int -> unit

(** Seed for the deterministic baseline draw. *)
val set_seed : int -> unit

(** The seeded 1-in-N decision for a trace id (pure; same answer every
    call). *)
val baseline_hit : int -> bool

(** Force-retain a trace (SLO breach, fault, shed, migration). The first
    reason recorded for an id wins. *)
val retain : id:int -> reason:string -> unit

val is_retained : int -> bool
val retention_reason : int -> string option

(** Retained [(id, reason)] pairs, sorted by id. *)
val retained : unit -> (int * string) list

(** Emit the [Trace_end] event for a request and apply the retention
    policy: an explicit [reason] always retains, otherwise only the
    baseline draw does. [state] uses {!state_name}'s code vocabulary
    (= [Serve.Request.state_code]). *)
val terminal :
  id:int -> label:int -> state:int -> ?reason:string -> unit -> unit

(** Human name for a terminal state code (0=queued … 6=failed). *)
val state_name : int -> string

(** {1 Exemplars} *)

(** Nominate [id] as the exemplar for the log-bucket [value_ms] lands
    in; the largest value per bucket wins. *)
val exemplar : metric:string -> value_ms:float -> id:int -> unit

(** All exemplars for a metric, worst (largest value) first. *)
val exemplars : metric:string -> (float * int) list

(** Every metric's exemplars, sorted by metric name. *)
val all_exemplars : unit -> (string * (float * int) list) list

(** Worst retained trace for a metric: [(id, value_ms)] of the largest
    exemplar whose id survived tail sampling. *)
val worst : metric:string -> (int * float) option

(** {1 Assembler} *)

(** Trace ids with at least one ring event, sorted. *)
val ids : unit -> int list

(** Time-ordered trace events for one id (empty if evicted/unknown). *)
val timeline : int -> Recorder.event list

(** Every id's {!timeline} from one pass over the rings, sorted by id. *)
val timelines : unit -> (int * Recorder.event list) list

(** Number of decode iterations (greedy + speculative) in a timeline. *)
val decode_spans : Recorder.event list -> int

val text_of_timeline : ?reason:string -> int -> string

(** Chrome trace for one request, per-replica lanes included. Output
    passes {!Json_check.validate}. *)
val chrome_of_timeline : int -> string

(** Span-tree conservation: opens with [Trace_queued], exactly one
    [Trace_end] and it is last, decodes only after a prefill or resume,
    resumes never exceed detaches, and a finished request has every
    detach matched by a resume. *)
val check_events : Recorder.event list -> (unit, string) result

val check : int -> (unit, string) result

(** Write every retained trace under [dir] (trace-<id>.txt +
    trace-<id>.trace.json, validated) plus index.txt and exemplars.txt
    for the CLI; returns the number of traces written. *)
val dump : dir:string -> int

(** Drop retention decisions and exemplars (ring events are the
    {!Recorder}'s to keep or drop). *)
val reset : unit -> unit
