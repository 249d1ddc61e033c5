(* KV-cache pool: recycles [Llm.kv_cache] objects across sessions instead
   of allocating fresh state per request. [acquire] prefers a rewound
   free cache (contiguous buffers survive [Llm.reset_cache]; a paged
   cache keeps its gather scratch while its blocks return to the arena),
   so a recycled session starts without touching the allocator.
   [release] rewinds and returns it, dropping caches beyond [max_free].
   Occupancy is published as telemetry gauges so the report shows pool
   behaviour under load.

   The pool owns the storage policy: [Contiguous] hands out
   capacity-backed per-request buffers; [Paged] hands out block tables
   over one shared [Kv.Block_manager] arena, optionally fronted by a
   [Kv.Prefix] trie so requests sharing a prompt prefix share physical
   blocks. *)

(* fault site: a fired [`Deny] models KV memory pressure — the scheduler
   must shed load, it cannot conjure cache space *)
let deny_site = Fault.site "serve.kv.acquire"

(* flight-recorder label for all KV pool events *)
let lbl_kv = Telemetry.Recorder.intern "serve.kv_pool"

type policy =
  | Contiguous
  | Paged of { block_size : int; num_blocks : int; prefix : bool }

type t = {
  llm : Llm.t;
  policy : policy;
  mgr : Kv.Block_manager.t option;  (* Some iff policy is Paged *)
  pfx : Kv.Prefix.t option;  (* Some iff Paged with prefix sharing *)
  init_cap : int;  (* initial rows of a freshly created contiguous cache *)
  max_free : int;
  max_live : int;  (* hard bound on concurrently acquired caches *)
  lock : Mutex.t;
  mutable free : Llm.kv_cache list;
  mutable free_n : int;
  mutable in_use : int;
  mutable peak_rows : int;  (* largest cache capacity seen at release *)
  in_use_g : Telemetry.Gauge.t;
  free_g : Telemetry.Gauge.t;
  peak_rows_g : Telemetry.Gauge.t;
  created_c : Telemetry.Counter.t;
  reused_c : Telemetry.Counter.t;
  denied_c : Telemetry.Counter.t;
}

let create ?(init_cap = 16) ?(max_free = 64) ?(max_live = max_int)
    ?(policy = Contiguous) llm =
  assert (max_live > 0);
  let mgr, pfx =
    match policy with
    | Contiguous -> (None, None)
    | Paged { block_size; num_blocks; prefix } ->
      let cfg = Llm.config llm in
      let m =
        Kv.Block_manager.create ~block_size ~num_blocks ~layers:cfg.Llm.layers
          ~hidden:cfg.Llm.hidden ()
      in
      (Some m, if prefix then Some (Kv.Prefix.create m) else None)
  in
  { llm; policy; mgr; pfx; init_cap; max_free; max_live;
    lock = Mutex.create (); free = []; free_n = 0;
    in_use = 0; peak_rows = 0;
    in_use_g = Telemetry.Gauge.find_or_create Metrics.kv_in_use_name;
    free_g = Telemetry.Gauge.find_or_create Metrics.kv_free_name;
    peak_rows_g = Telemetry.Gauge.find_or_create Metrics.kv_peak_rows_name;
    created_c = Telemetry.Counter.find_or_create Metrics.kv_created_name;
    reused_c = Telemetry.Counter.find_or_create Metrics.kv_reused_name;
    denied_c = Telemetry.Counter.find_or_create Metrics.kv_denied_name }

let publish t =
  Telemetry.Gauge.set t.in_use_g t.in_use;
  Telemetry.Gauge.set t.free_g t.free_n;
  Telemetry.Gauge.set t.peak_rows_g t.peak_rows;
  match t.mgr with
  | Some m -> Kv.Block_manager.publish m
  | None -> ()

let manager t = t.mgr
let prefix_cache t = t.pfx
let policy t = t.policy

let new_cache_for t =
  match t.mgr with
  | Some m -> Llm.new_paged_cache t.llm m
  | None -> Llm.new_cache ~cap:t.init_cap t.llm

(* Common acquire body: caller holds no lock; [extra_deny] runs under the
   pool lock and may veto (paged admission capacity check). [owner] is
   the requesting trace id: when given, the grant/denial also lands in
   the request's causal timeline as a [Trace_kv] event. *)
let acquire_common t ?owner ~extra_deny ~on_cache () =
  let fault_denied =
    match Fault.fire deny_site with `Deny -> true | `None | `Nan -> false
  in
  Mutex.lock t.lock;
  if fault_denied || t.in_use >= t.max_live || extra_deny () then begin
    Telemetry.Counter.incr t.denied_c;
    let in_use = t.in_use in
    Mutex.unlock t.lock;
    Telemetry.Recorder.emit Telemetry.Recorder.Kv_deny ~label:lbl_kv
      ~a:t.init_cap ~b:in_use;
    (match owner with
    | Some tr ->
      Telemetry.Recorder.emit Telemetry.Recorder.Trace_kv ~label:lbl_kv ~a:tr
        ~b:(-1)
    | None -> ());
    `Denied
  end
  else begin
    let cache =
      match t.free with
      | c :: rest ->
        t.free <- rest;
        t.free_n <- t.free_n - 1;
        Telemetry.Counter.incr t.reused_c;
        c
      | [] ->
        Telemetry.Counter.incr t.created_c;
        new_cache_for t
    in
    t.in_use <- t.in_use + 1;
    publish t;
    let in_use = t.in_use in
    Mutex.unlock t.lock;
    Telemetry.Recorder.emit Telemetry.Recorder.Kv_acquire ~label:lbl_kv
      ~a:(Llm.cache_capacity cache)
      ~b:in_use;
    (match owner with
    | Some tr ->
      Telemetry.Recorder.emit Telemetry.Recorder.Trace_kv ~label:lbl_kv ~a:tr
        ~b:(Llm.cache_capacity cache)
    | None -> ());
    on_cache cache
  end

(* [`Denied] instead of unbounded growth: the pool refuses an acquire
   beyond [max_live] live caches (or when the fault site fires), and the
   scheduler degrades (sheds load) rather than letting memory grow
   without limit under pressure. The fault fires outside the lock: a
   [Stall] rule must not block [release]. *)
let acquire t =
  acquire_common t ~extra_deny:(fun () -> false)
    ~on_cache:(fun c -> `Cache c)
    ()

(* Prefix-aware, admission-gated acquire. [total_rows] is the request's
   whole KV footprint (prompt + generated tokens); a paged pool denies
   up front when the arena cannot cover the un-shared part, so requests
   are shed at admission instead of failing mid-decode. The matched
   prefix is capped at [prompt-1] tokens: at least one suffix row must
   remain to compute the first token. *)
let acquire_for t ?owner ~prompt ~total_rows () =
  match t.mgr with
  | None ->
    acquire_common t ?owner
      ~extra_deny:(fun () -> false)
      ~on_cache:(fun c -> `Cache (c, 0))
      ()
  | Some m ->
    let bs = Kv.Block_manager.block_size m in
    let blocks, btok =
      match t.pfx with
      | Some p -> Kv.Prefix.lookup p ~prompt
      | None -> ([||], 0)
    in
    let matched = min (Array.length prompt - 1) btok in
    let matched = max matched 0 in
    let attach_n = (matched + bs - 1) / bs in
    let needed =
      ((total_rows + bs - 1) / bs) - attach_n
      (* a mid-block shared boundary copies-on-write into one extra block *)
      + (if matched mod bs <> 0 && matched > 0 then 1 else 0)
    in
    let extra_deny () = Kv.Block_manager.free_blocks m < needed in
    acquire_common t ?owner ~extra_deny
      ~on_cache:(fun c ->
        if matched > 0 then
          Llm.attach_prefix c ~blocks:(Array.sub blocks 0 attach_n)
            ~len:matched;
        `Cache (c, matched))
      ()

let release t cache =
  (* capture capacity before the rewind: a paged cache's block table
     empties on reset, a contiguous cache keeps its buffers either way *)
  let cap = Llm.cache_capacity cache in
  Llm.reset_cache cache;
  Mutex.lock t.lock;
  t.peak_rows <- max t.peak_rows cap;
  t.in_use <- t.in_use - 1;
  if t.free_n < t.max_free then begin
    t.free <- cache :: t.free;
    t.free_n <- t.free_n + 1
  end;
  publish t;
  let in_use = t.in_use in
  Mutex.unlock t.lock;
  Telemetry.Recorder.emit Telemetry.Recorder.Kv_release ~label:lbl_kv ~a:cap
    ~b:in_use

(* Admission-gated restore of a migrated session's KV snapshot — the
   destination half of a live migration. Same admission discipline as
   [acquire_for] ([serve.kv.acquire] fault, max_live bound, arena
   headroom for the request's whole footprint), but the cache is filled
   from the export instead of a fresh prefill: matched prompt chunks
   re-attach against *this* replica's trie (block-aligned by
   construction — the trie pins only full chunks — and bit-identical to
   the exported bytes since every replica runs the same deterministic
   engine), the remainder is imported as private blocks. On a mid-import
   denial the half-acquired cache is returned to the pool and [`Denied]
   is reported — the caller's snapshot stays the one live copy. *)
let import t ?owner ~prompt ~total_rows (e : Kv.Block_manager.export) =
  match t.mgr with
  | None ->
    acquire_common t ?owner
      ~extra_deny:(fun () -> false)
      ~on_cache:(fun c ->
        Llm.import_cache c e;
        `Cache c)
      ()
  | Some m ->
    let bs = Kv.Block_manager.block_size m in
    let blocks, btok =
      match t.pfx with
      | Some p -> Kv.Prefix.lookup p ~prompt
      | None -> ([||], 0)
    in
    (* never attach past the snapshot, and keep the boundary aligned *)
    let matched = min btok e.Kv.Block_manager.xrows / bs * bs in
    let attach_n = matched / bs in
    let needed = ((total_rows + bs - 1) / bs) - attach_n in
    let extra_deny () = Kv.Block_manager.free_blocks m < needed in
    acquire_common t ?owner ~extra_deny
      ~on_cache:(fun c ->
        match
          Llm.import_cache c
            ?attach:
              (if matched > 0 then
                 Some (Array.sub blocks 0 attach_n, matched)
               else None)
            e
        with
        | () -> `Cache c
        | exception Kv.Seq.Out_of_blocks ->
          release t c;
          `Denied
        | exception exn ->
          release t c;
          raise exn)
      ()

(* Register a finished prefill in the prefix trie so later requests with
   the same prompt prefix reuse its blocks. No-op for contiguous pools. *)
let register t ~prompt cache =
  match (t.pfx, Llm.cache_seq cache) with
  | Some p, Some seq -> Kv.Prefix.insert p ~prompt ~blocks:(Kv.Seq.blocks seq)
  | _ -> ()

let in_use t = t.in_use
let denied t = Telemetry.Counter.get t.denied_c
let free_count t = t.free_n
let peak_rows t = t.peak_rows
let created t = Telemetry.Counter.get t.created_c
let reused t = Telemetry.Counter.get t.reused_c
