(* Command-line front end of the serving stack: the options, their
   checks and the two run functions that the parlooper CLI's serve and
   chaos commands and the bench harness's --serve and --chaos share.
   Each option is defined once here, with its default read from the
   library record it sets. *)

open Cmdliner
open Term.Syntax
module Load = Serve.Load_gen
module Sched = Serve.Scheduler
module Router = Cluster.Router
module Chaos = Cluster.Chaos

(* ---- value checks: a bad value is a cmdliner error ---- *)

let checked of_string print =
  Arg.conv' (of_string, fun ppf v -> Format.pp_print_string ppf (print v))

let at_least lo =
  checked
    (fun s ->
      match int_of_string_opt s with
      | Some i when i >= lo -> Ok i
      | _ -> Error (Printf.sprintf "expected an integer >= %d, got %S" lo s))
    string_of_int

let positive =
  checked
    (fun s ->
      match float_of_string_opt s with
      | Some f when f > 0.0 -> Ok f
      | _ -> Error (Printf.sprintf "expected a positive number, got %S" s))
    (Printf.sprintf "%g")

let named ~expected of_string name =
  checked
    (fun s ->
      Option.to_result (of_string s)
        ~none:(Printf.sprintf "expected %s, got %S" expected s))
    name

let opt ?(docv = "N") parse default name doc =
  Arg.(value & opt parse default & info [ name ] ~docv ~doc)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let hard_kill_needs = "--hard-kill needs --replicas >= 2 (somewhere to migrate)"

(* ---- options of both modes ---- *)

let seed =
  opt Arg.int Load.default.Load.seed "seed"
    "seed of the load generator and of the fault plan"

let sys_prompt =
  opt (at_least 0) Load.default.Load.sys_prompt_len "sys-prompt"
    "tokens of a shared system prompt prepended to every request (the \
     workload shape --paged prefix sharing deduplicates; 0 disables)"

let hard_kill =
  flag "hard-kill"
    "hard-kill replica 1 mid-run: its in-flight sessions live-migrate to the \
     surviving replicas. A serve run kills it at half the duration, a chaos \
     run uses the hard-kill scenario. Needs --replicas >= 2"

let topology =
  let d = Router.default_config in
  let+ replicas =
    opt (at_least 1) 1 "replicas" "decode scheduler replicas behind the router"
  and+ shards =
    opt (at_least 1) d.Router.shards "shards"
      "tensor-parallel shards inside each replica (bit-identical to unsharded)"
  and+ disaggregate =
    flag "disaggregate"
      "run prefill on a dedicated replica and hand finished KV caches to \
       decode replicas over the handoff channel"
  and+ placement =
    opt ~docv:"rr|jsq|deadline"
      (named ~expected:"rr, jsq or deadline" Router.placement_of_string
         Router.placement_name)
      d.Router.placement "placement" "router placement"
  in
  { d with Router.replicas; shards; disaggregate; placement }

(* the KV and speculation fields of a scheduler config *)
let kv =
  let d = Sched.default_config in
  let+ paged =
    flag "paged"
      "paged KV storage: fixed-size token blocks from a shared arena with \
       copy-on-write sharing and prompt-prefix deduplication (bit-identical \
       to contiguous)"
  and+ block_size =
    opt (at_least 1) d.Sched.block_size "block-size"
      "tokens per KV block (with --paged)"
  and+ num_blocks =
    opt (at_least 1) d.Sched.num_blocks "num-blocks"
      "KV arena size in blocks per pool (with --paged)"
  and+ spec_k =
    opt ~docv:"K" (at_least 0) d.Sched.spec_k "spec-decode"
      "speculative decoding: propose $(docv) draft tokens per round and verify \
       them in one batched pass (0 disables; token-identical to greedy \
       decoding)"
  and+ draft_layers =
    opt (at_least 1) d.Sched.draft_layers "draft-layers"
      "decoder layers of the draft model (with --spec-decode)"
  in
  fun (c : Sched.config) ->
    { c with Sched.paged; block_size; num_blocks; spec_k; draft_layers }

(* ---- serve ---- *)

let load =
  let d = Load.default in
  let bounds = function
    | Load.Fixed n -> (n, n)
    | Load.Uniform (lo, hi) -> (lo, hi)
  in
  let pmin, pmax = bounds d.Load.prompt_len in
  let tmin, tmax = bounds d.Load.new_tokens in
  let count = opt (at_least 1) in
  Term.term_result'
    (let+ seed
     and+ rate_hz =
       opt ~docv:"HZ" positive d.Load.rate_hz "rate"
         "mean Poisson arrival rate (requests/s)"
     and+ duration_s =
       opt ~docv:"S" positive d.Load.duration_s "duration"
         "seconds of synthetic arrivals"
     and+ pmin = count pmin "prompt-min" "min prompt tokens"
     and+ pmax = count pmax "prompt-max" "max prompt tokens"
     and+ tmin = count tmin "tokens-min" "min new tokens"
     and+ tmax = count tmax "tokens-max" "max new tokens"
     and+ deadline_ms =
       opt ~docv:"MS" Arg.float 0.0 "deadline-ms"
         "per-request completion SLO in ms (0 disables; goodput counts \
          requests that finish within it)"
     and+ sys_prompt_len = sys_prompt in
     if pmin > pmax || tmin > tmax then
       Error
         "need --prompt-min <= --prompt-max and --tokens-min <= --tokens-max"
     else
       Ok
         { Load.seed; rate_hz; duration_s;
           prompt_len = Load.Uniform (pmin, pmax);
           new_tokens = Load.Uniform (tmin, tmax);
           deadline_s =
             (if deadline_ms > 0.0 then deadline_ms /. 1000.0
              else Float.infinity);
           sys_prompt_len })

let fleet =
  let d = Sched.default_config in
  let+ topology
  and+ kv
  and+ max_queue =
    opt (at_least 1) d.Sched.max_queue "max-queue"
      "admission queue bound (excess rejected)"
  and+ max_batch =
    opt (at_least 1) d.Sched.max_batch "max-batch"
      "max concurrently decoding sessions"
  and+ policy =
    opt ~docv:"fcfs|deadline"
      (named ~expected:"fcfs or deadline" Sched.policy_of_string
         Sched.policy_name)
      d.Sched.policy "policy" "admission policy"
  and+ nthreads =
    opt (Arg.some (at_least 1)) d.Sched.nthreads "threads"
      "team size of each replica's kernels (default: one per core)"
  and+ online_tune =
    flag "online-tune"
      "tune serve-path GEMM shapes on a background domain and hot-swap their \
       loop instantiations once a bit-identity check passes (decode outputs \
       are unchanged)"
  in
  { topology with
    Router.scheduler =
      kv { d with Sched.max_queue; max_batch; policy; nthreads; online_tune } }

type serve = {
  load : Load.config;
  fleet : Router.config;
  hard_kill : bool;
  live_metrics : string option;
  live_interval_ms : int;
  trace_dir : string option;
  trace_sample : int;
}

let serve_config =
  Term.term_result'
    (let+ load
     and+ fleet
     and+ hard_kill
     and+ live_metrics =
       opt ~docv:"FILE" Arg.(some string) None "live-metrics"
         "stream periodic live-metrics snapshots (one JSON object per line: \
          counters, gauges, deltas and per-second rates) to $(docv) while \
          serving; '-' streams to stdout"
     and+ live_interval_ms =
       opt ~docv:"MS" (at_least 1) 500 "live-interval-ms"
         "interval between live-metrics snapshots in milliseconds"
     and+ trace_dir =
       opt ~docv:"DIR" Arg.(some string) None "trace-dir"
         "dump retained causal request traces (tail-sampled: SLO breaches, \
          faults, sheds, migrations, plus a seeded 1-in-N baseline) into \
          $(docv) after the run; inspect with 'parlooper trace'"
     and+ trace_sample =
       opt (at_least 1) 16 "trace-sample"
         "baseline sampling rate with --trace-dir: retain roughly one in \
          $(docv) healthy requests alongside every breaching one"
     in
     if hard_kill && fleet.Router.replicas < 2 then Error hard_kill_needs
     else
       Ok
         { load; fleet; hard_kill; live_metrics; live_interval_ms; trace_dir;
           trace_sample })

let plural n = if n = 1 then "" else "s"

(* [counted]: each counter's increase over the serve run *)
let print_pools router counted =
  let pools = Router.pools router in
  let run name = Option.value ~default:0 (List.assoc_opt name counted) in
  List.iteri
    (fun i pool ->
      (* created/reused are fleet-wide counters; free/peak are per pool *)
      if i = 0 then
        Printf.printf "KV fleet: %d created, %d reused across %d pools\n"
          (run Serve.Metrics.kv_created_name)
          (run Serve.Metrics.kv_reused_name)
          (List.length pools);
      Printf.printf "KV pool %d: %d free at exit, peak %d rows/layer\n" i
        (Serve.Kv_pool.free_count pool)
        (Serve.Kv_pool.peak_rows pool);
      Option.iter
        (fun m ->
          Printf.printf
            "KV arena: %d/%d blocks free at exit (%d prefix-pinned); fleet \
             totals: %d allocated, %d freed, %d COW copies, %d prefix hits\n"
            (Kv.Block_manager.free_blocks m)
            (Kv.Block_manager.num_blocks m)
            (Option.fold ~none:0 ~some:Kv.Prefix.pinned
               (Serve.Kv_pool.prefix_cache pool))
            (run Kv.Block_manager.pages_allocated_name)
            (run Kv.Block_manager.pages_freed_name)
            (run Kv.Block_manager.cow_copies_name)
            (run Kv.Block_manager.prefix_hits_name))
        (Serve.Kv_pool.manager pool))
    pools

let serve s =
  (* the process's counters already hold whatever ran before this run:
     report each as its increase over the run *)
  let before = Telemetry.Expose.take () in
  let counted () =
    Telemetry.Expose.deltas ~prev:before (Telemetry.Expose.take ())
  in
  let load = s.load and fleet = s.fleet in
  let sched = fleet.Router.scheduler in
  Option.iter
    (fun _ ->
      (* big rings so a whole run's sparse trace events survive; fresh
         trace state so retention and exemplars describe this run only *)
      Telemetry.Recorder.set_capacity 65536;
      Telemetry.Recorder.reset ();
      Telemetry.Trace.reset ();
      Telemetry.Trace.set_baseline s.trace_sample;
      Telemetry.Trace.set_seed load.Load.seed)
    s.trace_dir;
  let llm = Llm.create ~rng:(Prng.create 7) ~block:8 Llm.tiny in
  let trace = Load.generate load ~vocab:Llm.tiny.Llm.vocab in
  Printf.printf
    "serving %d arrivals (%.0f req/s x %.1fs, prompts %s, new tokens %s) on \
     %s: queue<=%d batch<=%d policy=%s threads=%s replicas=%d shards=%d \
     placement=%s%s\n"
    (List.length trace) load.Load.rate_hz load.Load.duration_s
    (Load.dist_to_string load.Load.prompt_len)
    (Load.dist_to_string load.Load.new_tokens)
    Llm.tiny.Llm.name sched.Sched.max_queue sched.Sched.max_batch
    (Sched.policy_name sched.Sched.policy)
    (Option.fold ~none:"per-core" ~some:string_of_int sched.Sched.nthreads)
    fleet.Router.replicas fleet.Router.shards
    (Router.placement_name fleet.Router.placement)
    (if fleet.Router.disaggregate then " disaggregated" else "");
  if sched.Sched.paged then
    Printf.printf
      "paged KV: %d-token blocks, %d-block arena, prefix sharing on\n"
      sched.Sched.block_size sched.Sched.num_blocks;
  if sched.Sched.spec_k > 0 then
    Printf.printf "speculative decoding: k=%d, %d draft layer%s\n"
      sched.Sched.spec_k sched.Sched.draft_layers
      (plural sched.Sched.draft_layers);
  if sched.Sched.online_tune then
    Printf.printf "online tuning: per-shape spec cache + background tuner on\n";
  flush stdout;
  let router =
    match Router.create ~config:fleet llm with
    | Ok r -> r
    | Error e ->
      Printf.eprintf "cannot build cluster: %s\n" e;
      exit 1
  in
  let live_out =
    match s.live_metrics with
    | None -> None
    | Some "-" -> Some stdout
    | Some path -> (
      try Some (open_out path)
      with Sys_error msg ->
        Printf.eprintf "cannot open %s: %s\n" path msg;
        exit 1)
  in
  let live =
    Option.map
      (fun out ->
        { Cluster.Driver.every_s = float_of_int s.live_interval_ms /. 1000.0;
          out })
      live_out
  in
  let hard_kill =
    if s.hard_kill then Some (load.Load.duration_s /. 2.0, 1) else None
  in
  let o = Cluster.Driver.run ?live ?hard_kill router trace in
  Option.iter
    (fun oc ->
      let n = o.Cluster.Driver.snapshots in
      Printf.printf "live metrics: %d snapshot%s" n (plural n);
      if oc == stdout then print_newline ()
      else begin
        close_out oc;
        Printf.printf " -> %s\n" (Option.get s.live_metrics)
      end)
    live_out;
  List.iter
    (fun (i, r) ->
      Printf.printf "replica %d%s: %s\n" i
        (if i >= fleet.Router.replicas then " (prefill)" else "")
        (Serve.Metrics.summary_to_string r))
    o.Cluster.Driver.per_replica;
  Printf.printf "fleet (histograms merged across replicas):\n";
  Serve.Metrics.print o.Cluster.Driver.summary;
  print_pools router (counted ());
  if sched.Sched.online_tune then begin
    (* let in-flight background tunes land, so the tuner.cache.* counters
       are final, then report and stop the tuning domain *)
    ignore (Spec_cache.drain ~timeout_s:10.0);
    let c = Spec_cache.stats () in
    Printf.printf
      "spec cache: %d hits, %d misses, %d hot-swaps, %d rejected, %d tunes\n"
      c.Spec_cache.hits c.Spec_cache.misses c.Spec_cache.swaps
      c.Spec_cache.rejected c.Spec_cache.tunes;
    List.iter
      (fun (e : Spec_cache.entry) ->
        Printf.printf "  %-40s %-9s %s\n" e.Spec_cache.shape e.Spec_cache.state
          e.Spec_cache.spec)
      (Spec_cache.entries ());
    Spec_cache.disable ()
  end;
  Option.iter
    (fun dir ->
      Printf.printf
        "causal traces: %d retained -> %s (inspect: parlooper trace worst \
         --metric ttft --dir %s)\n"
        (Telemetry.Trace.dump ~dir) dir dir)
    s.trace_dir;
  flush stdout;
  (o, counted ())

(* ---- chaos ---- *)

let chaos_config =
  Term.term_result'
    (let+ seed
     and+ sys_prompt
     and+ hard_kill
     and+ t = topology
     and+ kv
     and+ requests =
       opt (at_least 1) Chaos.solo.Chaos.requests "requests"
         "number of requests in the chaos trace"
     and+ plan =
       (* the plan's seed is --seed's, set below *)
       opt ~docv:"PLAN"
         (Arg.some
            (checked (fun s -> Fault.plan_of_string s) Fault.plan_to_string))
         None "plan"
         "fault plan, e.g. 'serve.decode:exn@n3+11;serve.kv.acquire:deny@n2'; \
          rule = site ':' kind ('exn'|'nan'|'deny'|'stall(MS)') ['@' trigger \
          ('nN[+PERIOD]' | 'pPROB')]. Default: a plan covering every fault \
          site class."
     in
     if hard_kill && t.Router.replicas < 2 then Error hard_kill_needs
     else
       let base =
         if hard_kill then Chaos.hard_kill
         else if t.Router.replicas = 1 then Chaos.solo
         else Chaos.default
       in
       Ok
         { base with
           Chaos.seed; requests;
           replicas = t.Router.replicas;
           shards = t.Router.shards;
           disaggregate = t.Router.disaggregate;
           placement = t.Router.placement;
           shared_prefix = sys_prompt;
           scheduler = kv base.Chaos.scheduler;
           plan = Option.map (fun p -> { p with Fault.seed }) plan })

let chaos (c : Chaos.config) =
  let sched = c.Chaos.scheduler in
  let part cond fmt = Printf.ksprintf (fun s -> if cond then s else "") fmt in
  Printf.printf
    "\n== chaos: %d-replica fleet under seeded fault injection (seed %d, %d \
     requests%s%s%s%s%s%s) ==\nplan: %s\n%!"
    c.Chaos.replicas c.Chaos.seed c.Chaos.requests
    (part (c.Chaos.shards > 1) ", %d shards" c.Chaos.shards)
    (part c.Chaos.disaggregate ", disaggregated")
    (part sched.Sched.paged ", paged KV")
    (part (sched.Sched.spec_k > 0) ", spec k=%d" sched.Sched.spec_k)
    (part (c.Chaos.hard_kill_step >= 0) ", replica %d hard-killed mid-run"
       c.Chaos.hard_kill_replica)
    (part (c.Chaos.quarantine_step >= 0) ", replica %d quarantined mid-run"
       c.Chaos.quarantine_replica)
    (Fault.plan_to_string (Chaos.plan c));
  let r = Chaos.run ~config:c () in
  print_string (Chaos.report_to_string r);
  flush stdout;
  let failures =
    List.map (fun v -> "invariant violated: " ^ v) r.Chaos.violations
    @ List.filter_map
        (fun (failed, why) -> if failed then Some why else None)
        [ (r.Chaos.injected = 0, "the plan injected no fault");
          ( c.Chaos.hard_kill_step >= 0 && r.Chaos.migrations_completed = 0,
            "the hard kill completed no migration" );
          (* a prefill tier that decoded its own sessions would pass
             every conservation and identity check *)
          ( c.Chaos.disaggregate && r.Chaos.adopted = 0,
            "the disaggregated fleet adopted no session" ) ]
  in
  List.iter (Printf.eprintf "chaos: %s; the run proves nothing\n") failures;
  (r, failures = [])

(* ---- telemetry ---- *)

type telemetry = { report : bool; trace : string option }

let telemetry =
  let+ report =
    flag "telemetry" "collect runtime telemetry and print the registry report"
  and+ trace =
    opt ~docv:"FILE" Arg.(some string) None "trace"
      "write a Chrome trace_event JSON timeline to $(docv)"
  in
  { report; trace }

let with_telemetry ?peak_gflops t f =
  if (not t.report) && t.trace = None then f ()
  else begin
    Telemetry.Registry.reset ();
    Telemetry.Registry.enable ();
    let r = f () in
    Telemetry.Registry.disable ();
    let host = Platform.host in
    let peak_gflops =
      Option.value peak_gflops ~default:(Platform.peak_gflops host Datatype.F32)
    in
    Telemetry.Report.print ~peak_gflops ~mem_bw_gbs:host.Platform.mem_bw_gbs ();
    Option.iter
      (fun path ->
        try
          Telemetry.Chrome_trace.write path;
          Printf.printf "trace written to %s (open in chrome://tracing)\n%!"
            path
        with Sys_error msg ->
          Printf.eprintf "cannot write trace: %s\n" msg;
          exit 1)
      t.trace;
    r
  end

let eval cmd = match Cmd.eval_value cmd with Ok _ -> 0 | Error _ -> 1
