type ctx = {
  tid : int;
  nthreads : int;
  barrier : unit -> unit;
  fetch_chunk : instance:int -> chunk:int -> int;
}

(* Pool observability. Counters are unconditional atomic bumps (same
   convention as the JIT-cache counters); the dispatch-latency histogram
   is fed only while the registry is enabled. *)
let spin_c = Telemetry.Counter.find_or_create Telemetry.Registry.pool_spin_name
let park_c = Telemetry.Counter.find_or_create Telemetry.Registry.pool_park_name

let reuse_c =
  Telemetry.Counter.find_or_create Telemetry.Registry.pool_reuse_name

let dispatches_c =
  Telemetry.Counter.find_or_create Telemetry.Registry.pool_dispatches_name

let spawned_c =
  Telemetry.Counter.find_or_create Telemetry.Registry.pool_workers_name

let dispatch_h =
  Telemetry.Histogram.find_or_create Telemetry.Registry.pool_dispatch_ns_name

let trips_c =
  Telemetry.Counter.find_or_create Telemetry.Registry.watchdog_trips_name

let quarantined_c =
  Telemetry.Counter.find_or_create Telemetry.Registry.pool_quarantined_name

(* flight-recorder labels, interned once (never on the hot path) *)
let lbl_barrier = Telemetry.Recorder.intern "team.barrier"
let lbl_pool = Telemetry.Recorder.intern "team.pool"
let lbl_spawn = Telemetry.Recorder.intern "team.spawn"

(* ---- failure model ----

   A parallel region never loses an exception: every thread's failure is
   recorded under a lock and the caller re-raises them as one
   [Parallel_failure], tids ascending. [Worker_stalled] is synthesized by
   the watchdog for a pooled worker that accepted a job but did not
   finish within [abandon_s]; [Barrier_timeout] is raised out of a
   barrier wait that exceeded [abandon_s] (only when a watchdog is
   armed), so a region whose peer died before the barrier unwinds
   instead of deadlocking. *)

exception Parallel_failure of (int * exn) list
exception Worker_stalled of { tid : int; waited_s : float }
exception Barrier_timeout of { waited_s : float }

let () =
  Printexc.register_printer (function
    | Parallel_failure l ->
      Some
        (Printf.sprintf "Team.Parallel_failure [%s]"
           (String.concat "; "
              (List.map
                 (fun (tid, e) ->
                   Printf.sprintf "tid %d: %s" tid (Printexc.to_string e))
                 l)))
    | Worker_stalled { tid; waited_s } ->
      Some (Printf.sprintf "Team.Worker_stalled(tid=%d, waited=%.3fs)" tid waited_s)
    | Barrier_timeout { waited_s } ->
      Some (Printf.sprintf "Team.Barrier_timeout(waited=%.3fs)" waited_s)
    | _ -> None)

(* Watchdog over pooled dispatches and barrier waits. [None] (the
   default) keeps the exact spin-then-park fast path; arming it switches
   the caller's completion wait and all barrier parks to a polling wait
   that warns at [warn_s] (counter [watchdog.trips]) and recovers at
   [abandon_s]: never-started jobs are stolen and run inline by the
   caller, dead or wedged workers are quarantined out of the pool
   (respawned on the next dispatch), and stuck peers surface as
   [Worker_stalled] inside [Parallel_failure]. *)
type watchdog = { warn_s : float; abandon_s : float }

let watchdog_cfg : watchdog option ref = ref None
let set_watchdog w = watchdog_cfg := w
let current_watchdog () = !watchdog_cfg

(* Per-region failure aggregation. [any] keeps the happy path to a single
   atomic load; the list is only touched under the mutex on failure. *)
module Failures = struct
  type t = {
    m : Mutex.t;
    mutable l : (int * exn) list;
    any : bool Atomic.t;
  }

  let create () = { m = Mutex.create (); l = []; any = Atomic.make false }

  let record t tid e =
    Mutex.lock t.m;
    t.l <- (tid, e) :: t.l;
    Atomic.set t.any true;
    Mutex.unlock t.m

  let reset t =
    if Atomic.get t.any then begin
      Mutex.lock t.m;
      t.l <- [];
      Atomic.set t.any false;
      Mutex.unlock t.m
    end

  let any t = Atomic.get t.any

  let get t =
    Mutex.lock t.m;
    let l = t.l in
    Mutex.unlock t.m;
    List.sort (fun (a, _) (b, _) -> compare a b) l
end

(* Fault-injection sites (no-ops unless a Fault plan is installed):
   [team.worker.body] fires inside every logical thread's body — [Exn]
   models user-code failure, [Stall] a slow thread; [team.worker.loop]
   fires when a pooled worker picks up a job — [Exn] kills the worker
   thread itself, exercising steal + quarantine. *)
let body_site = Fault.site "team.worker.body"
let loop_site = Fault.site "team.worker.loop"

(* ---- hybrid spin-then-park waiting ----

   Spin before parking on a condition variable, so back-to-back
   dispatches and barrier crossings cost no syscalls. The spin phase
   yields to the scheduler every few probes: when logical threads
   outnumber cores (systhreads multiplexed onto one domain's runtime
   lock), a pure cpu_relax spin would hold the domain until the
   preemption tick and starve the very thread it is waiting for.

   A waiter spins for at least [spin_limit] probes and until [spin_ns]
   have passed, like an OpenMP runtime's block time. Parking lets the OS
   re-place the thread at every wake-up, and a futex wake tends to land
   on the waker's CPU: two team threads that park and wake each other
   once per region can then share one CPU for seconds while another
   idles, and every region runs at one thread's speed. A region of a few
   milliseconds re-dispatches well inside the budget, so back-to-back
   regions never park; an idle pool still parks after [spin_ns]. *)

let spin_limit = 256
let spin_ns = 2_000_000

let spin_until pred =
  pred ()
  ||
  let t0 = Telemetry.Clock.now_int_ns () in
  let i = ref 0 in
  let hit = ref false in
  while
    (not !hit)
    && (!i < spin_limit || Telemetry.Clock.now_int_ns () - t0 < spin_ns)
  do
    if !i land 3 = 3 then Thread.yield () else Domain.cpu_relax ();
    incr i;
    hit := pred ()
  done;
  !hit

(* Sense-reversing barrier, safe across domains and systhreads. Arrival
   is a single fetch-and-add; waiters spin on the generation gate and
   fall back to a mutex/condvar park. The last arriver resets the arrival
   count *before* opening the gate, so threads racing into the next phase
   cannot observe a stale count. *)
module Barrier = struct
  type t = {
    total : int;
    arrived : int Atomic.t;
    generation : int Atomic.t;
    mutex : Mutex.t;
    cond : Condition.t;
  }

  let create total =
    {
      total;
      arrived = Atomic.make 0;
      generation = Atomic.make 0;
      mutex = Mutex.create ();
      cond = Condition.create ();
    }

  let wait t =
    if t.total > 1 then begin
      let gen = Atomic.get t.generation in
      let arrival = Atomic.fetch_and_add t.arrived 1 in
      Telemetry.Recorder.emit Telemetry.Recorder.Barrier_arrive
        ~label:lbl_barrier ~a:arrival ~b:gen;
      if arrival = t.total - 1 then begin
        Atomic.set t.arrived 0;
        Mutex.lock t.mutex;
        Atomic.incr t.generation;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex
      end
      else if spin_until (fun () -> Atomic.get t.generation <> gen) then
        Telemetry.Counter.incr spin_c
      else begin
        match !watchdog_cfg with
        | None ->
          Mutex.lock t.mutex;
          while Atomic.get t.generation = gen do
            Condition.wait t.cond t.mutex
          done;
          Mutex.unlock t.mutex;
          Telemetry.Counter.incr park_c
        | Some wd ->
          (* OCaml's Condition has no timed wait, so an armed watchdog
             polls: cheap enough off the fast path (the spin phase above
             already absorbed the common case) and it can give up *)
          let t0 = Telemetry.Clock.now_s () in
          let warned = ref false in
          while Atomic.get t.generation = gen do
            Thread.delay 50e-6;
            let waited = Telemetry.Clock.now_s () -. t0 in
            if (not !warned) && waited >= wd.warn_s then begin
              warned := true;
              Telemetry.Counter.incr trips_c
            end;
            if waited >= wd.abandon_s then
              raise (Barrier_timeout { waited_s = waited })
          done;
          Telemetry.Counter.incr park_c
      end
    end
end

(* Per-instance dynamic work-sharing counters. Work-sharing constructs are
   matched across threads by per-thread encounter order (like the OpenMP
   runtime), so the table is indexed by the instance number and grown on
   demand. The table itself is held in an Atomic: the fast path reads one
   consistent snapshot (never two reads that could straddle a concurrent
   replacement), and growers publish the new array with a single
   Atomic.set under the mutex. *)
module Counters = struct
  type t = {
    mutex : Mutex.t;
    table : int Atomic.t array Atomic.t;
  }

  let create () = { mutex = Mutex.create (); table = Atomic.make [||] }

  (* rewind all instance counters to zero so a pooled team can reuse the
     table across parallel regions (instances are numbered from 0 in every
     region). Only called between regions, when no worker is fetching. *)
  let reset t =
    Mutex.lock t.mutex;
    Array.iter (fun c -> Atomic.set c 0) (Atomic.get t.table);
    Mutex.unlock t.mutex

  let get t instance =
    let tbl = Atomic.get t.table in
    if instance < Array.length tbl then tbl.(instance)
    else begin
      Mutex.lock t.mutex;
      (* re-check under the lock: another domain may have grown it since *)
      let tbl = Atomic.get t.table in
      let n = Array.length tbl in
      let tbl =
        if instance < n then tbl
        else begin
          let fresh =
            Array.init (instance + 1) (fun i ->
                if i < n then tbl.(i) else Atomic.make 0)
          in
          Atomic.set t.table fresh;
          fresh
        end
      in
      let c = tbl.(instance) in
      Mutex.unlock t.mutex;
      c
    end

  let fetch t ~instance ~chunk = Atomic.fetch_and_add (get t instance) chunk
end

let domains_for n =
  let cores = Domain.recommended_domain_count () in
  max 1 (min n cores)

(* ---- shared team plumbing ---- *)

let make_ctx ~tid ~nthreads ~barrier ~counters =
  {
    tid;
    nthreads;
    barrier = (fun () -> Barrier.wait barrier);
    fetch_chunk = (fun ~instance ~chunk -> Counters.fetch counters ~instance ~chunk);
  }

let run_single f =
  f
    {
      tid = 0;
      nthreads = 1;
      barrier = (fun () -> ());
      fetch_chunk =
        (let counters = Counters.create () in
         fun ~instance ~chunk -> Counters.fetch counters ~instance ~chunk);
    }

(* ---- spawn-per-call execution (reference path) ----

   The original backend: fresh domains and systhreads per call. Kept as
   the fallback for nested/concurrent teams and as the baseline the
   dispatch-overhead benchmark compares the pool against. *)

let run_spawn ~nthreads f =
  assert (nthreads > 0);
  if nthreads = 1 then run_single f
  else begin
    let barrier = Barrier.create nthreads in
    let counters = Counters.create () in
    let failures = Failures.create () in
    let thread_body tid () =
      try
        (match Fault.fire body_site with _ -> ());
        f (make_ctx ~tid ~nthreads ~barrier ~counters)
      with e -> Failures.record failures tid e
    in
    let ndomains = domains_for nthreads in
    (* round-robin logical threads over domains; each domain runs its
       share as systhreads so barriers interleave correctly *)
    let domains =
      List.init (ndomains - 1) (fun d ->
          Domain.spawn (fun () ->
              let mine =
                List.init nthreads Fun.id
                |> List.filter (fun t -> t mod ndomains = d + 1)
              in
              let threads =
                List.map (fun tid -> Thread.create (thread_body tid) ()) mine
              in
              List.iter Thread.join threads))
    in
    (* domain 0 = current domain *)
    let mine =
      List.init nthreads Fun.id |> List.filter (fun t -> t mod ndomains = 0)
    in
    Telemetry.Recorder.emit Telemetry.Recorder.Pool_dispatch ~label:lbl_spawn
      ~a:nthreads ~b:ndomains;
    let threads = List.map (fun tid -> Thread.create (thread_body tid) ()) mine in
    List.iter Thread.join threads;
    List.iter Domain.join domains;
    if Failures.any failures then begin
      ignore
        (Telemetry.Recorder.post_mortem ~reason:"team.parallel_failure");
      raise (Parallel_failure (Failures.get failures))
    end
  end

(* ---- persistent worker pool ----

   Process-wide, created lazily on the first parallel team and resized on
   demand, never torn down (parked workers cost nothing and the runtime
   exits cleanly with parked domains). Topology: up to
   recommended_domain_count - 1 carrier domains (the caller's domain being
   the remaining participant); each worker is a systhread with a
   single-slot mailbox. On a single-core host there are no carriers at
   all: workers are systhreads in the dispatching thread's own domain,
   where a mailbox handoff is a cheap same-runtime-lock switch — waking a
   thread in another domain that has nothing else to run costs a full OS
   preemption tick, three orders of magnitude more.

   A team of n uses the calling thread as logical tid 0 and workers
   0..n-2 as tids 1..n-1, so dispatch is n-1 mailbox stores — no thread
   or domain creation on the hot path. Per-dispatch state (barrier,
   work-sharing counters, ctx records, job thunks) is cached in a [team]
   record and reused while the requested width stays the same, so a
   steady-state dispatch allocates almost nothing.

   [lock] is held by the dispatching thread for its entire parallel
   region. That serializes team execution (matching the one-OpenMP-team
   model of the paper's runtime); a nested or concurrent [run] simply
   fails the try_lock and falls back to [run_spawn], which is always
   correct. *)
module Pool = struct
  type mailbox = {
    flag : int Atomic.t;  (** 0 = idle, 1 = job ready *)
    mutable work : unit -> unit;  (** valid while [flag = 1] *)
    parked : bool Atomic.t;
    m : Mutex.t;
    cv : Condition.t;
    mutable jobs_run : int;  (** touched only by the owning worker *)
  }

  type carrier = {
    cm : Mutex.t;
    ccv : Condition.t;
    mutable pending : mailbox list;  (** workers awaiting spawn on this domain *)
  }

  (* reusable per-dispatch state, rebuilt only when the team width
     changes. [work] is published before the mailbox flags are raised
     (the Atomic.set in [submit] orders it) and read by workers after
     their acquire of the flag. *)
  type team = {
    nthreads : int;
    counters : Counters.t;
    ctxs : ctx array;
    mutable jobs : (unit -> unit) array;  (** index tid-1 *)
    (* per-job lifecycle, index tid-1: 0 = submitted, 1 = running on its
       worker, 2 = done, 3 = stolen by the caller's watchdog. The CAS
       0->1 (worker) vs 0->3 (stealer) race guarantees a job body runs
       exactly once even when a worker dies or wakes late. *)
    states : int Atomic.t array;
    remaining : int Atomic.t;
    caller_parked : bool Atomic.t;
    done_m : Mutex.t;
    done_cv : Condition.t;
    failures : Failures.t;
    started : int Atomic.t;
    mutable t0 : int64;  (** dispatch timestamp, valid when telemetry on *)
    mutable telem : bool;
    mutable work : ctx -> unit;
  }

  type t = {
    lock : Mutex.t;
    mutable workers : mailbox array;
    mutable carriers : carrier array;
    mutable team : team option;  (** cached; guarded by [lock] *)
  }

  let noop () = ()

  let make_mailbox () =
    {
      flag = Atomic.make 0;
      work = noop;
      parked = Atomic.make false;
      m = Mutex.create ();
      cv = Condition.create ();
      jobs_run = 0;
    }

  let rec worker_loop mb =
    (if spin_until (fun () -> Atomic.get mb.flag <> 0) then
       Telemetry.Counter.incr spin_c
     else begin
       Mutex.lock mb.m;
       Atomic.set mb.parked true;
       while Atomic.get mb.flag = 0 do
         Condition.wait mb.cv mb.m
       done;
       Atomic.set mb.parked false;
       Mutex.unlock mb.m;
       Telemetry.Counter.incr park_c
     end);
    let f = mb.work in
    Atomic.set mb.flag 0;
    if mb.jobs_run > 0 then Telemetry.Counter.incr reuse_c;
    mb.jobs_run <- mb.jobs_run + 1;
    Telemetry.Counter.incr dispatches_c;
    match Fault.fire loop_site with
    | exception Fault.Injected _ ->
      (* injected worker death: stop looping so the thread exits without
         running the job; the caller's watchdog steals it and quarantines
         this mailbox *)
      ()
    | _ ->
      (* jobs handle their own exceptions/completion; never kill the worker *)
      (try f () with _ -> ());
      worker_loop mb

  (* systhreads must be created from inside their domain, so each carrier
     domain runs a tiny control loop spawning the workers assigned to it *)
  let carrier_loop c () =
    Mutex.lock c.cm;
    while true do
      match c.pending with
      | mb :: rest ->
        c.pending <- rest;
        Mutex.unlock c.cm;
        ignore (Thread.create worker_loop mb);
        Mutex.lock c.cm
      | [] -> Condition.wait c.ccv c.cm
    done

  let pool =
    { lock = Mutex.create (); workers = [||]; carriers = [||]; team = None }

  let max_carriers = lazy (Domain.recommended_domain_count () - 1)

  (* grow to [n] workers; caller holds [pool.lock] *)
  let ensure n =
    let have = Array.length pool.workers in
    if n > have then begin
      let want_carriers = min n (Lazy.force max_carriers) in
      let nc = Array.length pool.carriers in
      if want_carriers > nc then begin
        let fresh =
          Array.init (want_carriers - nc) (fun _ ->
              let c =
                { cm = Mutex.create (); ccv = Condition.create (); pending = [] }
              in
              ignore (Domain.spawn (carrier_loop c));
              c)
        in
        pool.carriers <- Array.append pool.carriers fresh
      end;
      let ncar = Array.length pool.carriers in
      let fresh =
        Array.init (n - have) (fun i ->
            let mb = make_mailbox () in
            (if ncar = 0 then
               (* single-core host: worker lives in the caller's domain *)
               ignore (Thread.create worker_loop mb)
             else begin
               let c = pool.carriers.((have + i) mod ncar) in
               Mutex.lock c.cm;
               c.pending <- mb :: c.pending;
               Condition.signal c.ccv;
               Mutex.unlock c.cm
             end);
            Telemetry.Counter.incr spawned_c;
            mb)
      in
      pool.workers <- Array.append pool.workers fresh
    end

  let submit (mb : mailbox) f =
    mb.work <- f;
    Atomic.set mb.flag 1;
    if Atomic.get mb.parked then begin
      Mutex.lock mb.m;
      Condition.signal mb.cv;
      Mutex.unlock mb.m
    end

  let make_team nthreads =
    let barrier = Barrier.create nthreads in
    let counters = Counters.create () in
    let tm =
      {
        nthreads;
        counters;
        ctxs =
          Array.init nthreads (fun tid ->
              make_ctx ~tid ~nthreads ~barrier ~counters);
        jobs = [||];
        states = Array.init (nthreads - 1) (fun _ -> Atomic.make 0);
        remaining = Atomic.make 0;
        caller_parked = Atomic.make false;
        done_m = Mutex.create ();
        done_cv = Condition.create ();
        failures = Failures.create ();
        started = Atomic.make 0;
        t0 = 0L;
        telem = false;
        work = ignore;
      }
    in
    let job tid () =
      (* a worker that lost the claim race was pre-empted by the
         watchdog's steal; the stealer already ran the body and
         decremented [remaining], so do nothing *)
      if Atomic.compare_and_set tm.states.(tid - 1) 0 1 then begin
        if tm.telem && Atomic.fetch_and_add tm.started 1 = nthreads - 2 then
          Telemetry.Histogram.observe dispatch_h
            (Int64.to_float (Telemetry.Clock.elapsed_ns ~since:tm.t0));
        (try
           (match Fault.fire body_site with _ -> ());
           tm.work tm.ctxs.(tid)
         with e -> Failures.record tm.failures tid e);
        Atomic.set tm.states.(tid - 1) 2;
        if
          Atomic.fetch_and_add tm.remaining (-1) = 1
          && Atomic.get tm.caller_parked
        then begin
          Mutex.lock tm.done_m;
          Condition.broadcast tm.done_cv;
          Mutex.unlock tm.done_m
        end
      end
    in
    tm.jobs <- Array.init (nthreads - 1) (fun i -> job (i + 1));
    tm

  (* caller holds [pool.lock] *)
  let team_for nthreads =
    match pool.team with
    | Some tm when tm.nthreads = nthreads -> tm
    | _ ->
      let tm = make_team nthreads in
      pool.team <- Some tm;
      tm

  (* drop worker mailboxes [idxs] from the pool; caller holds
     [pool.lock]. A quarantined worker that is merely slow (rather than
     dead) parks forever on its now-orphaned mailbox — it can never
     double-run a job because the per-job CAS already failed. Replacement
     workers are respawned by [ensure] on the next dispatch. *)
  let quarantine idxs =
    match idxs with
    | [] -> ()
    | _ ->
      let keep = ref [] in
      Array.iteri
        (fun i mb -> if not (List.mem i idxs) then keep := mb :: !keep)
        pool.workers;
      pool.workers <- Array.of_list (List.rev !keep);
      pool.team <- None;
      List.iter (fun _ -> Telemetry.Counter.incr quarantined_c) idxs

  (* watchdog-armed completion wait: poll [remaining]; at [warn_s] count
     a trip, at [abandon_s] recover — steal never-started jobs (running
     them inline on the caller), then quarantine workers that are dead
     (mailbox still flagged) or wedged mid-job (state 1). Stuck peers are
     reported as [Worker_stalled]; their late completion only touches
     this (now detached) team record, which is benign. *)
  let watchdog_wait tm (wd : watchdog) =
    let t0 = Telemetry.Clock.now_s () in
    let warned = ref false in
    let abandoned = ref false in
    while (not !abandoned) && Atomic.get tm.remaining > 0 do
      Thread.delay 100e-6;
      let waited = Telemetry.Clock.now_s () -. t0 in
      if (not !warned) && waited >= wd.warn_s then begin
        warned := true;
        Telemetry.Counter.incr trips_c
      end;
      if waited >= wd.abandon_s then begin
        abandoned := true;
        Array.iteri
          (fun i st ->
            if Atomic.compare_and_set st 0 3 then begin
              (try
                 (match Fault.fire body_site with _ -> ());
                 tm.work tm.ctxs.(i + 1)
               with e -> Failures.record tm.failures (i + 1) e);
              ignore (Atomic.fetch_and_add tm.remaining (-1))
            end)
          tm.states;
        let bad = ref [] in
        Array.iteri
          (fun i st ->
            if i < Array.length pool.workers then begin
              let stuck = Atomic.get st = 1 in
              if stuck then
                Failures.record tm.failures (i + 1)
                  (Worker_stalled { tid = i + 1; waited_s = waited });
              if stuck || Atomic.get pool.workers.(i).flag <> 0 then
                bad := i :: !bad
            end)
          tm.states;
        quarantine (List.rev !bad)
      end
    done

  let size () =
    Mutex.lock pool.lock;
    let n = Array.length pool.workers in
    Mutex.unlock pool.lock;
    n
end

let pool_size () = Pool.size ()

(* caller holds the pool lock; caller executes tid 0 itself *)
let run_pooled ~nthreads f =
  Pool.ensure (nthreads - 1);
  let tm = Pool.team_for nthreads in
  Counters.reset tm.Pool.counters;
  Failures.reset tm.Pool.failures;
  Array.iter (fun st -> Atomic.set st 0) tm.Pool.states;
  Atomic.set tm.Pool.remaining (nthreads - 1);
  tm.Pool.work <- f;
  let telem = Telemetry.Registry.enabled () in
  tm.Pool.telem <- telem;
  if telem then begin
    Atomic.set tm.Pool.started 0;
    tm.Pool.t0 <- Telemetry.Clock.now_ns ()
  end;
  Telemetry.Recorder.emit Telemetry.Recorder.Pool_dispatch ~label:lbl_pool
    ~a:nthreads ~b:(Array.length Pool.pool.workers);
  for tid = 1 to nthreads - 1 do
    Pool.submit Pool.pool.workers.(tid - 1) tm.Pool.jobs.(tid - 1)
  done;
  (try
     (match Fault.fire body_site with _ -> ());
     f tm.Pool.ctxs.(0)
   with e -> Failures.record tm.Pool.failures 0 e);
  (if spin_until (fun () -> Atomic.get tm.Pool.remaining = 0) then
     Telemetry.Counter.incr spin_c
   else
     match !watchdog_cfg with
     | Some wd -> Pool.watchdog_wait tm wd
     | None ->
       Mutex.lock tm.Pool.done_m;
       Atomic.set tm.Pool.caller_parked true;
       while Atomic.get tm.Pool.remaining > 0 do
         Condition.wait tm.Pool.done_cv tm.Pool.done_m
       done;
       Atomic.set tm.Pool.caller_parked false;
       Mutex.unlock tm.Pool.done_m;
       Telemetry.Counter.incr park_c);
  tm.Pool.work <- ignore;
  if Failures.any tm.Pool.failures then begin
    (* a failed region may leave barrier/job state inconsistent (timed-out
       barrier waiters, stuck workers): rebuild per-dispatch state *)
    Pool.pool.team <- None;
    ignore (Telemetry.Recorder.post_mortem ~reason:"team.parallel_failure");
    raise (Parallel_failure (Failures.get tm.Pool.failures))
  end

let run ~nthreads f =
  assert (nthreads > 0);
  if nthreads = 1 then run_single f
  else if Mutex.try_lock Pool.pool.lock then (
    match run_pooled ~nthreads f with
    | () -> Mutex.unlock Pool.pool.lock
    | exception e ->
      Mutex.unlock Pool.pool.lock;
      raise e)
  else
    (* a team is already active (nested / concurrent parallel region):
       spawning preserves full generality *)
    run_spawn ~nthreads f

let run_sequential ~nthreads f =
  assert (nthreads > 0);
  (* deterministic round-robin dynamic assignment: per-(instance, tid)
     private counters stepping by nthreads*chunk *)
  for tid = 0 to nthreads - 1 do
    let local : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
    let fetch_chunk ~instance ~chunk =
      let r =
        match Hashtbl.find_opt local instance with
        | Some r -> r
        | None ->
          let r = ref (tid * chunk) in
          Hashtbl.replace local instance r;
          r
      in
      let v = !r in
      r := v + (nthreads * chunk);
      v
    in
    f { tid; nthreads; barrier = (fun () -> ()); fetch_chunk }
  done
