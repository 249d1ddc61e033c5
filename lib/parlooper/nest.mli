(** Loop-nest compilation: turns (logical loop declarations, parsed spec
    string) into an executable nest — the OCaml-native equivalent of the
    paper's JITed C++ loop function (Listing 2/3).

    Compilation validates the spec (RULE 1 blocking legality, RULE 2
    parallelization shape), resolves every occurrence to a loop level with
    its step and extent rule, and groups consecutive PAR-MODE 1 levels into
    collapse groups. Execution interprets the compiled levels with
    specialized closures; there is no per-iteration string inspection. *)

exception Invalid_spec of string

type t

(** [compile specs parsed] — raises {!Invalid_spec} on an illegal spec. *)
val compile : Loop_spec.t array -> Spec_parser.t -> t

(** Thread count the nest wants: R*C*L for PAR-MODE 2; [default] when
    PAR-MODE 1 parallelism is present; 1 for fully serial nests. *)
val required_threads : t -> default:int -> int

(** [Some (r*c*l)] for PAR-MODE 2 nests, [None] otherwise. *)
val grid_threads : t -> int option

(** [exec t ~nthreads ~init ~term ~body] runs the nest on a team.
    [init]/[term] run once per logical thread before/after the nest (as in
    Listing 2). [body] receives the logical index array (alphabetical
    order); the array is reused between invocations — do not retain.

    When the telemetry registry is enabled, each team thread records one
    [Telemetry.Span] (category ["loop"], named [label]) covering its whole
    traversal, with its barrier-wait time as a span argument and
    accumulated into the ["parlooper.barrier_wait_ns"] counter. With
    telemetry disabled the instrumentation costs one bool load per run. *)
val exec :
  ?label:string ->
  t ->
  nthreads:int ->
  init:(unit -> unit) option ->
  term:(unit -> unit) option ->
  body:(int array -> unit) ->
  unit

(** Like {!exec} but runs logical threads sequentially in tid order with
    deterministic dynamic scheduling; [body] also receives the thread id.
    Used for tracing by the performance model. *)
val exec_sequential :
  t -> nthreads:int -> body:(tid:int -> int array -> unit) -> unit

(** Total number of innermost body invocations across all threads. *)
val body_invocations : t -> int
