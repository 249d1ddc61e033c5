(** The PARLOOPER user API — the OCaml counterpart of the paper's
    [ThreadedLoop<N>] (Listing 1).

    {[
      let gemm_loop =
        Threaded_loop.create
          [ Loop_spec.make ~bound:kb ~step:k_step ();       (* loop a *)
            Loop_spec.make ~bound:mb ~step:m_step ();       (* loop b *)
            Loop_spec.make ~bound:nb ~step:n_step () ]      (* loop c *)
          "bcaBCb"
      in
      Threaded_loop.run gemm_loop ~nthreads:16 (fun ind ->
          let ik = ind.(0) and im = ind.(1) and in_ = ind.(2) in
          ...)
    ]}

    [create] validates and compiles the requested instantiation — or
    returns it from the JIT cache when the same (loops, spec string) pair
    was compiled before, mirroring the paper's cached JIT of loop nests. *)

type t

exception Invalid_spec of string
(** Raised by {!create} for illegal spec strings (RULE 1 / RULE 2
    violations, undeclared loops, missing blocking steps). *)

(** [create specs spec_string] — [specs.(0)] is logical loop [a], etc. *)
val create : Loop_spec.t list -> string -> t

val spec_string : t -> string
val specs : t -> Loop_spec.t array

(** [run ?nthreads ?init ?term t body]:
    - PAR-MODE 2 strings fix the team size to R*C*L ([nthreads], if given,
      must agree);
    - PAR-MODE 1 strings use [nthreads] (default: the machine's
      recommended domain count);
    - serial strings run on one thread.
    [init]/[term] run once per team thread before/after the nest.
    [body] receives the logical indices in alphabetical order; the array
    is reused — copy it if you must retain it. *)
val run :
  ?nthreads:int ->
  ?init:(unit -> unit) ->
  ?term:(unit -> unit) ->
  t ->
  (int array -> unit) ->
  unit

(** Team size [run] would use. *)
val threads_used : ?nthreads:int -> t -> int

(** The team size a parallel loop gets when no [nthreads] is given: one
    thread per core. *)
val default_threads : unit -> int

(** Deterministic sequential execution exposing the thread id; used for
    tracing and in tests (identical iteration assignment to [run] with
    static scheduling; dynamic scheduling becomes round-robin). *)
val run_traced : ?nthreads:int -> t -> (tid:int -> int array -> unit) -> unit

(** Total body invocations [run] will perform (all threads together). *)
val body_invocations : t -> int

(** JIT-cache statistics: (hits, misses) since start/clear. The same
    numbers are published as the telemetry counters
    ["parlooper.jit.hits"] / ["parlooper.jit.misses"], alongside
    ["parlooper.jit.evictions"] and ["parlooper.jit.compile_ns"]. *)
val cache_stats : unit -> int * int

val cache_clear : unit -> unit

(** The JIT cache is a bounded LRU (default capacity 512 compiled nests)
    so unbounded spec sweeps — e.g. long autotuning runs — cannot grow it
    without limit. Shrinking the capacity evicts immediately. *)
val cache_set_capacity : int -> unit

val cache_get_capacity : unit -> int

(** Number of compiled nests currently cached. *)
val cache_size : unit -> int
