(** One inference request through its serving lifecycle:
    arrival -> [Queued] -> [Prefilling] -> [Decoding] -> [Finished], or
    terminally: [Rejected] at submission (admission queue full, or the
    deadline already passed), [Cancelled] by mid-flight deadline
    enforcement, [Failed] when prefill/decode kept failing after the
    scheduler's bounded retries. *)

type state =
  | Queued
  | Prefilling
  | Decoding
  | Finished
  | Rejected
  | Cancelled
  | Failed

val state_name : state -> string

(** Compact state code carried in [Trace_end] recorder events (0=queued …
    6=failed; agrees with {!Telemetry.Trace.state_name}). *)
val state_code : state -> int

(** True for states that can never change again ([Finished], [Rejected],
    [Cancelled], [Failed]). *)
val terminal : state -> bool

type t = {
  id : int;
  trace : int;
      (** causal-trace id tagging this request's recorder events; assigned
          at {!Load_gen}/submit time (defaults to [id]) and carried across
          routing, handoff and migration unchanged *)
  prompt : int array;  (** prefill input token ids *)
  gen : int array;
      (** pre-drawn "sampled" ids fed back during decode: [gen.(k)] is the
          input of decode step [k+1]; only [gen.(0 .. new_tokens - 2)] are
          consumed *)
  new_tokens : int;
      (** total output tokens: 1 from prefill + decode steps *)
  deadline_s : float;  (** SLO: total-latency budget from arrival *)
  mutable arrival_s : float;  (** set by the scheduler at submission *)
  mutable state : state;
  mutable ttft_s : float;  (** time-to-first-token; [nan] until prefilled *)
  mutable finish_s : float;  (** total latency; [nan] until finished *)
  mutable outputs : Tensor.t list;  (** hidden states, newest first *)
  mutable out_rows : rows option;
      (** the buffer [outputs]' rows live in: one [new_tokens x hidden]
          tensor per request, so a kept token costs its row and a view *)
}

and rows

(** [make ~id ~prompt ~gen ()] — [new_tokens] is [Array.length gen];
    default deadline is infinite (never violates the SLO); default
    [trace] is [id]. *)
val make :
  id:int ->
  ?trace:int ->
  prompt:int array ->
  gen:int array ->
  ?deadline_s:float ->
  unit ->
  t

(** Absolute deadline on the serving clock (arrival + budget). *)
val deadline_abs : t -> float

val met_deadline : t -> bool

(** Per-token hidden states in emission order. *)
val outputs : t -> Tensor.t list

(** Forget the outputs; the next {!push_output} starts a new buffer, so
    rows already handed out keep their values. *)
val reset_outputs : t -> unit

(** [push_output t x ~row] appends a copy of row [row] of [x : n x hidden]
    to [t]'s outputs, as a row of the request's output buffer. *)
val push_output : t -> Tensor.t -> row:int -> unit
