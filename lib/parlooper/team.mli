(** Thread-team runtime — the concurrency substrate PARLOOPER generates
    loops for (the paper's POC uses OpenMP; the back-end is designed to be
    swappable, §II-B).

    A team of [nthreads] logical threads executes a function in SPMD style,
    like an [omp parallel] region. Teams are served by a process-wide
    persistent worker pool (worker systhreads hosted on carrier domains —
    or on the dispatcher's own domain when the host has a single core —
    created lazily and resized on demand, each with a single-slot mailbox
    and hybrid spin-then-park waiting), so entering a parallel region
    costs mailbox stores, not thread/domain creation — the property that
    lets OpenMP amortize thread management across a persistent team. The
    calling thread participates as logical tid 0. Nested or concurrent
    teams fall back transparently to spawn-per-call execution. *)

type ctx = {
  tid : int;  (** logical thread id, 0-based *)
  nthreads : int;
  barrier : unit -> unit;  (** team-wide barrier *)
  fetch_chunk : instance:int -> chunk:int -> int;
      (** dynamic work-sharing: atomically claim the next [chunk]-sized
          range start for work-sharing construct number [instance] (the
          per-thread encounter index); returns the claimed start. *)
}

(** All exceptions raised inside a parallel region, as [(tid, exn)]
    sorted by tid — none are lost; the region always joins every thread
    (or steals/abandons it via the watchdog) before raising. *)
exception Parallel_failure of (int * exn) list

(** A pooled worker accepted a job but made no progress for the
    watchdog's [abandon_s] budget; its job was stolen and executed by the
    caller, and the worker was quarantined out of the pool. *)
exception Worker_stalled of { tid : int; waited_s : float }

(** A barrier wait exceeded the watchdog's [abandon_s] budget —
    typically because a teammate died and will never arrive. *)
exception Barrier_timeout of { waited_s : float }

(** Liveness watchdog for pooled regions and barriers: after [warn_s]
    seconds of no progress the [watchdog.trips] counter increments; after
    [abandon_s] seconds unstarted jobs are stolen (run by the caller),
    non-responding workers are quarantined (counter [pool.quarantined])
    and the region raises {!Parallel_failure}. [None] (the default)
    disables the watchdog: waiting uses condvar parking with no timeout
    and zero polling overhead. *)
type watchdog = { warn_s : float; abandon_s : float }

val set_watchdog : watchdog option -> unit
val current_watchdog : unit -> watchdog option

(** [run ~nthreads f] executes [f ctx] on every logical thread and waits
    for all of them. Exceptions raised by any thread are aggregated and
    re-raised as {!Parallel_failure} after the team finishes; a raising
    worker returns to the pool and stays usable. *)
val run : nthreads:int -> (ctx -> unit) -> unit

(** Spawn-per-call execution: fresh domains and systhreads for this team
    only. Same semantics as {!run}. This is the fallback used for nested
    and concurrent teams, and the baseline the dispatch-overhead
    benchmark measures the pool against. *)
val run_spawn : nthreads:int -> (ctx -> unit) -> unit

(** Sequential "trace" execution: runs logical threads one after another
    (tid order) with barriers as no-ops and [fetch_chunk] replaced by a
    deterministic round-robin assignment. Used by the performance model to
    extract per-thread access traces without timing effects. *)
val run_sequential : nthreads:int -> (ctx -> unit) -> unit

(** Number of physical domains {!run_spawn} will use for a team of [n]. *)
val domains_for : int -> int

(** Current number of live pool workers (grows monotonically with the
    largest team seen; the pool persists for the process lifetime). *)
val pool_size : unit -> int
