(* Bounded handoff channels — the seam work crosses when it moves between
   replicas. The generic ['a chan] is a capacity-bounded FIFO with
   push/pop/requeue and depth telemetry; [`Full] is backpressure the
   producer must handle structurally (reclaim, drain-and-retry), never a
   silent drop. Two instantiations live here:

   - the prefill -> decode KV handoff ([t], the disaggregation seam): a
     prefill replica pushes a finished prefill (request + filled KV
     cache) and a decode replica adopts it; the cache never moves or
     copies, only ownership does. The [release] stored with each entry
     returns the cache to the pool that created it (the prefill side's),
     wrapped to fire exactly once — a buggy double retirement is
     swallowed and counted under [cluster.handoff.double_release]
     instead of corrupting the pool's occupancy accounting.

   - the migration channel (built by the router from the same ['a chan]):
     detached in-flight sessions in transit during a hard-kill
     failover. *)

type 'a chan = {
  ccap : int;
  mutable citems : 'a list;  (* oldest first *)
  cpushed_c : Telemetry.Counter.t;
  cpopped_c : Telemetry.Counter.t;
  cdepth_g : Telemetry.Gauge.t;
}

(* the channel is "full" when at [cap] — a structured, retryable
   condition: producers reclaim or drain-and-retry, they never drop *)
exception Backpressure of string

let chan_create ?(cap = 16) ~pushed ~popped ~depth () =
  assert (cap > 0);
  { ccap = cap;
    citems = [];
    cpushed_c = Telemetry.Counter.find_or_create pushed;
    cpopped_c = Telemetry.Counter.find_or_create popped;
    cdepth_g = Telemetry.Gauge.find_or_create depth }

let chan_depth c = List.length c.citems
let chan_is_full c = chan_depth c >= c.ccap

let chan_push c x =
  if chan_is_full c then `Full
  else begin
    c.citems <- c.citems @ [ x ];
    Telemetry.Counter.incr c.cpushed_c;
    Telemetry.Gauge.set c.cdepth_g (chan_depth c);
    `Ok
  end

let chan_pop c =
  match c.citems with
  | [] -> None
  | x :: rest ->
    c.citems <- rest;
    Telemetry.Counter.incr c.cpopped_c;
    Telemetry.Gauge.set c.cdepth_g (chan_depth c);
    Some x

(* put back an item a consumer could not take — head position, so channel
   order is preserved; no push/pop accounting *)
let chan_requeue c x =
  c.citems <- x :: c.citems;
  Telemetry.Gauge.set c.cdepth_g (chan_depth c)

(* ---- the prefill -> decode instantiation ---- *)

type entry = {
  req : Serve.Request.t;
  cache : Llm.kv_cache;
  release : Llm.kv_cache -> unit;  (* exactly-once, owning-pool release *)
}

(* fires inside [push]: Deny simulates a full channel, Exn a transport
   failure — both exercise the prefill tier's reclaim path *)
let push_site = Fault.site "cluster.handoff.push"

(* causal-trace lane label for the cross-replica handoff seam *)
let lbl_handoff = Telemetry.Recorder.intern "cluster.handoff"

let pushed_name = "cluster.handoff.pushed"
let popped_name = "cluster.handoff.popped"
let double_release_name = "cluster.handoff.double_release"
let depth_name = "cluster.handoff.depth"

type t = entry chan

let create ?(cap = 16) () =
  chan_create ~cap ~pushed:pushed_name ~popped:popped_name ~depth:depth_name
    ()

let depth = chan_depth
let is_full = chan_is_full

(* wrap an owning-pool release so retirement can only happen once *)
let once ~release =
  let double_release_c =
    Telemetry.Counter.find_or_create double_release_name
  in
  let released = ref false in
  fun cache ->
    if !released then Telemetry.Counter.incr double_release_c
    else begin
      released := true;
      release cache
    end

let push t ~req ~cache ~release =
  match Fault.fire push_site with
  | `Deny -> `Full
  | `None | `Nan -> (
    match chan_push t { req; cache; release = once ~release } with
    | `Ok ->
      Telemetry.Recorder.emit Telemetry.Recorder.Trace_handoff
        ~label:lbl_handoff ~a:req.Serve.Request.trace ~b:(chan_depth t);
      `Ok
    | `Full -> `Full)

let pop = chan_pop
let requeue = chan_requeue
