(* Online per-shape spec cache for the serve path.

   When enabled, a resolver installed in Gemm intercepts every
   create_resolved call: the first arrival of a (shape, dtype, blocks,
   spec) key is served the caller's default instantiation and the shape
   is queued for background tuning; a background domain runs the
   model-guided Search over it and — once the winning candidate passes a
   bit-identity probe against the default spec — publishes the tuned
   (config, spec), so the next nest compile for that shape (serve layers
   re-create their Gemm per forward through the JIT LRU) hot-swaps to
   the tuned instantiation. A candidate that fails the probe publishes
   the default instead, pinning the shape so it is never re-queued.

   The bit-identity gate is sound because every candidate the search can
   reach keeps the K loop serial and its occurrences in outer-to-inner
   order, so each C block accumulates its K contributions in the same
   increasing-k sequence regardless of loop order, blocking or thread
   assignment — float addition order is identical, hence bits are. The
   probe still verifies this end-to-end (nthreads:1 on deterministic
   PRNG inputs) rather than trusting the invariant.

   All counters land in Telemetry under the tuner.cache prefix: hits
   (resolved from a published entry), misses (not yet published), swaps
   (tuned spec published), rejected (probe failed, default pinned),
   tunes (background tunes completed). *)

type status = Pending | Published of Gemm.config * string

type tuning = {
  platform : Platform.t;
  nthreads : int;
  strategy : Search.strategy;
  max_evals : int;
}

let lock = Mutex.create ()
let cond = Condition.create ()
let table : (string, status) Hashtbl.t = Hashtbl.create 16
let queue : (string * Gemm.config * string) Queue.t = Queue.create ()
let worker : unit Domain.t option ref = ref None
let stop = ref false
let busy = ref false
let tuning : tuning option ref = ref None

let hits_c = Telemetry.Counter.find_or_create Telemetry.Registry.tuner_cache_hits_name
let misses_c = Telemetry.Counter.find_or_create Telemetry.Registry.tuner_cache_misses_name
let swaps_c = Telemetry.Counter.find_or_create Telemetry.Registry.tuner_cache_swaps_name
let rejected_c = Telemetry.Counter.find_or_create Telemetry.Registry.tuner_cache_rejected_name
let tunes_c = Telemetry.Counter.find_or_create Telemetry.Registry.tuner_cache_tunes_name

(* the caller's spec is part of the key: two call sites hitting the same
   shape with different baseline specs tune independently *)
let key_of (c : Gemm.config) spec =
  Printf.sprintf "%dx%dx%d/b%dx%dx%d/%s%s%s/ks%d/%s" c.Gemm.m c.Gemm.n c.Gemm.k
    c.Gemm.bm c.Gemm.bn c.Gemm.bk
    (Datatype.to_string c.Gemm.dtype)
    (if c.Gemm.vnni_b then "v" else "")
    (match c.Gemm.layout with Gemm.Blocked -> "" | Gemm.Rows -> "r")
    c.Gemm.k_step spec

(* ---- bit-identity probe ----
   run default and candidate instantiations on the same deterministic
   inputs and require every C bit to match. Packing depends only on
   shape/blocks/dtype/layout (not on blocking lists or spec), so one
   packed A/B pair serves both. nthreads:1 suffices: thread assignment cannot
   change per-block accumulation order for any reachable spec. *)
let bit_identical (base : Gemm.config) base_spec (cand : Gemm.config)
    cand_spec =
  match
    let g0 = Gemm.create base base_spec in
    let g1 = Gemm.create cand cand_spec in
    let rng = Prng.create 20260808 in
    let a =
      Tensor.random base.Gemm.dtype [| base.Gemm.m; base.Gemm.k |] rng ~scale:1.0
    in
    let b =
      Tensor.random base.Gemm.dtype [| base.Gemm.k; base.Gemm.n |] rng ~scale:1.0
    in
    let ap = Gemm.pack_a base a and bp = Gemm.pack_b base b in
    let c0 = Gemm.alloc_c base and c1 = Gemm.alloc_c cand in
    Gemm.run ~nthreads:1 g0 ~a:ap ~b:bp ~c:c0;
    Gemm.run ~nthreads:1 g1 ~a:ap ~b:bp ~c:c1;
    let n = Tensor.numel c0 in
    let ok = ref (Tensor.numel c1 = n) in
    let i = ref 0 in
    while !ok && !i < n do
      if
        Int64.bits_of_float (Tensor.get_flat c0 !i)
        <> Int64.bits_of_float (Tensor.get_flat c1 !i)
      then ok := false;
      incr i
    done;
    !ok
  with
  | ok -> ok
  | exception _ -> false

(* ---- background tuner ---- *)

let tune_one (t : tuning) (base : Gemm.config) spec =
  Telemetry.Counter.incr tunes_c;
  match
    Search.search ~strategy:t.strategy ~max_evals:t.max_evals
      ~platform:t.platform ~nthreads:t.nthreads base
  with
  | exception e ->
    Printf.eprintf "spec_cache: tuning failed (%s), pinning default\n%!"
      (Printexc.to_string e);
    Telemetry.Counter.incr rejected_c;
    Published (base, spec)
  | report -> (
    match report.Search.ranked with
    | [] ->
      Telemetry.Counter.incr rejected_c;
      Published (base, spec)
    | best :: _ ->
      let bcfg = best.Autotune.cfg and bspec = best.Autotune.spec in
      if bspec = spec && bcfg = base then
        (* search agrees with the default: publish it, neither a swap nor
           a rejection *)
        Published (base, spec)
      else if bit_identical base spec bcfg bspec then begin
        Telemetry.Counter.incr swaps_c;
        Published (bcfg, bspec)
      end
      else begin
        Telemetry.Counter.incr rejected_c;
        Published (base, spec)
      end)

let rec worker_loop () =
  Mutex.lock lock;
  while Queue.is_empty queue && not !stop do
    Condition.wait cond lock
  done;
  if !stop then Mutex.unlock lock
  else begin
    let key, base, spec = Queue.pop queue in
    busy := true;
    let t = Option.get !tuning in
    Mutex.unlock lock;
    let result = tune_one t base spec in
    Mutex.lock lock;
    Hashtbl.replace table key result;
    busy := false;
    Condition.broadcast cond;
    Mutex.unlock lock;
    worker_loop ()
  end

(* ---- the resolver (serve path, any domain) ---- *)

let resolve cfg spec =
  let key = key_of cfg spec in
  Mutex.lock lock;
  let r =
    match Hashtbl.find_opt table key with
    | Some (Published (c, s)) ->
      Telemetry.Counter.incr hits_c;
      Some (c, s)
    | Some Pending ->
      Telemetry.Counter.incr misses_c;
      None
    | None ->
      Telemetry.Counter.incr misses_c;
      Hashtbl.replace table key Pending;
      Queue.push (key, cfg, spec) queue;
      Condition.broadcast cond;
      None
  in
  Mutex.unlock lock;
  r

(* ---- lifecycle ---- *)

let enabled_flag = ref false
let enabled () = !enabled_flag

let disable () =
  if !enabled_flag then begin
    Gemm.clear_spec_resolver ();
    Mutex.lock lock;
    stop := true;
    Condition.broadcast cond;
    Mutex.unlock lock;
    (match !worker with Some d -> Domain.join d | None -> ());
    worker := None;
    Mutex.lock lock;
    Queue.clear queue;
    Hashtbl.reset table;
    busy := false;
    tuning := None;
    Mutex.unlock lock;
    enabled_flag := false
  end

let enable ?(strategy = Search.default_strategy) ?(max_evals = 64)
    ?(platform = Platform.host) ~nthreads () =
  disable ();
  Mutex.lock lock;
  stop := false;
  tuning := Some { platform; nthreads; strategy; max_evals };
  Mutex.unlock lock;
  worker := Some (Domain.spawn worker_loop);
  Gemm.set_spec_resolver resolve;
  enabled_flag := true

let drain ~timeout_s =
  let t0 = Telemetry.Clock.now_ns () in
  let rec wait () =
    Mutex.lock lock;
    let idle = Queue.is_empty queue && not !busy in
    Mutex.unlock lock;
    if idle then true
    else if Telemetry.Clock.elapsed_s ~since:t0 > timeout_s then false
    else begin
      Domain.cpu_relax ();
      wait ()
    end
  in
  wait ()

type entry = { shape : string; state : string; spec : string }

let entries () =
  Mutex.lock lock;
  let l =
    Hashtbl.fold
      (fun shape st acc ->
        let state, spec =
          match st with
          | Pending -> ("pending", "")
          | Published (_, s) -> ("published", s)
        in
        { shape; state; spec } :: acc)
      table []
  in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.shape b.shape) l

type stats = {
  hits : int;
  misses : int;
  swaps : int;
  rejected : int;
  tunes : int;
}

let stats () =
  {
    hits = Telemetry.Counter.get hits_c;
    misses = Telemetry.Counter.get misses_c;
    swaps = Telemetry.Counter.get swaps_c;
    rejected = Telemetry.Counter.get rejected_c;
    tunes = Telemetry.Counter.get tunes_c;
  }
