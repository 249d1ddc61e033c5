(* Drives a serving front door (one scheduler, or the cluster router)
   with open- and closed-loop traffic and records, at every step return,
   which tokens each request has gained. Latencies run from a request's
   scheduled arrival, so time it waited behind a long step counts. *)

let clock () = Telemetry.Clock.now_s ()

(* The calls the benchmark makes into a serving tier. *)
type front = {
  submit : now:float -> Serve.Request.t -> bool;
  step : now:(unit -> float) -> bool;
  busy : unit -> bool;
  tokens : unit -> int;
  schedulers : Serve.Scheduler.t array;
  pools : Serve.Kv_pool.t list;
}

let scheduler_front ?engine llm =
  let s = Serve.Scheduler.create ?engine llm in
  { submit = (fun ~now r -> Serve.Scheduler.submit s ~now r);
    step = (fun ~now -> Serve.Scheduler.step s ~now);
    busy = (fun () -> Serve.Scheduler.busy s);
    tokens = (fun () -> Serve.Scheduler.tokens_emitted s);
    schedulers = [| s |];
    pools = [ Serve.Scheduler.pool s ] }

(* The router's defaults (two replicas, round-robin) over schedulers
   with paged KV and the prefix trie. *)
let router_front llm =
  let config =
    { Cluster.Router.default_config with
      Cluster.Router.scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.paged = true;
          prefix_share = true;
          block_size = Params.rag_block;
          num_blocks = Params.rag_arena_blocks } }
  in
  match Cluster.Router.create ~config llm with
  | Error e -> failwith ("router: " ^ e)
  | Ok r ->
    { submit = (fun ~now q -> Cluster.Router.submit r ~now q);
      step = (fun ~now -> Cluster.Router.step r ~now);
      busy = (fun () -> Cluster.Router.busy r);
      tokens = (fun () -> Cluster.Router.tokens_emitted r);
      schedulers = Cluster.Router.schedulers r;
      pools = Cluster.Router.pools r }

(* One request as the benchmark saw it. Times are on the phase clock. *)
type track = {
  item : Gen.item;
  due : float;  (** scheduled arrival *)
  mutable seen : int;  (** tokens observed so far *)
  mutable first : float;  (** step return that showed the first token *)
  mutable last : float;  (** step return that showed the latest token *)
}

let track item due = { item; due; seen = 0; first = nan; last = nan }
let state tr = tr.item.Gen.req.Serve.Request.state
let finished tr = state tr = Serve.Request.Finished
let ttft_ms tr = 1000.0 *. (tr.first -. tr.due)

(* Mean gap between successive tokens; 0 for a single-token request. *)
let mean_gap_ms tr =
  if tr.seen < 2 then 0.0
  else 1000.0 *. (tr.last -. tr.first) /. float_of_int (tr.seen - 1)

type phase = {
  tracks : track list;  (** every request submitted, submission order *)
  gaps_ms : float list;  (** gaps between successive tokens, all requests *)
  lags_ms : float list;  (** how late each submission was *)
  window_tokens : int;  (** closed loop: tokens inside the window *)
  window_s : float;  (** closed loop: length of the window *)
}

(* Record the tokens [tr] gained by step return [t]. Tokens that appear
   in the same return as their predecessor have a gap of 0. *)
let observe gaps t tr =
  let n = List.length tr.item.Gen.req.Serve.Request.outputs in
  for k = tr.seen + 1 to n do
    if k = 1 then tr.first <- t
    else gaps := (if k = tr.seen + 1 then 1000.0 *. (t -. tr.last) else 0.0) :: !gaps
  done;
  if n > tr.seen then begin
    tr.last <- t;
    tr.seen <- n
  end

(* Observe every in-flight request, dropping those that reached a
   terminal state; returns the dropped ones. *)
let sweep gaps t inflight =
  let done_, live =
    List.partition
      (fun tr ->
        observe gaps t tr;
        Serve.Request.terminal (state tr))
      !inflight
  in
  inflight := live;
  done_

(* Spin until [due] on the phase clock, as [Serve.Driver] does between
   arrivals. *)
let wait_until now due =
  while now () < due do
    Domain.cpu_relax ()
  done

(* Open loop: each item is submitted when its due time comes, whether or
   not the tier keeps up; then the tier drains. *)
let open_loop front arrivals =
  let t0 = clock () in
  let now () = clock () -. t0 in
  let pending = ref arrivals in
  let inflight = ref [] and all = ref [] in
  let gaps = ref [] and lags = ref [] in
  let rec loop () =
    let t = now () in
    let rec submit_due () =
      match !pending with
      | (due, item) :: rest when due <= t ->
        pending := rest;
        lags := (1000.0 *. (t -. due)) :: !lags;
        let tr = track item due in
        all := tr :: !all;
        if front.submit ~now:t item.Gen.req then inflight := tr :: !inflight;
        submit_due ()
      | _ -> ()
    in
    submit_due ();
    let worked = front.step ~now in
    ignore (sweep gaps (now ()) inflight);
    match !pending with
    | (due, _) :: _ ->
      if not worked then wait_until now due;
      loop ()
    | [] -> if front.busy () || !inflight <> [] then loop ()
  in
  loop ();
  { tracks = List.rev !all; gaps_ms = !gaps; lags_ms = !lags;
    window_tokens = 0; window_s = 0.0 }

(* Closed loop: [clients] callers each submit their next request as soon
   as the previous one ends. Throughput counts the tokens emitted until
   the first step return at or past [duration]; the requests still in
   flight then drain untimed. *)
let closed_loop front ~clients ~duration next =
  let t0 = clock () in
  let now () = clock () -. t0 in
  let inflight = ref [] and all = ref [] and gaps = ref [] in
  let submit () =
    let t = now () in
    let tr = track (next ()) t in
    all := tr :: !all;
    if front.submit ~now:t tr.item.Gen.req then inflight := tr :: !inflight
  in
  for _ = 1 to clients do
    submit ()
  done;
  let tokens0 = front.tokens () in
  let window = ref None in
  while front.busy () || !inflight <> [] do
    ignore (front.step ~now);
    let t = now () in
    let ended = List.length (sweep gaps t inflight) in
    if !window = None then
      if t >= duration then window := Some (front.tokens () - tokens0, t)
      else
        for _ = 1 to ended do
          submit ()
        done
  done;
  let window_tokens, window_s =
    match !window with Some w -> w | None -> (front.tokens () - tokens0, now ())
  in
  { tracks = List.rev !all; gaps_ms = !gaps; lags_ms = []; window_tokens;
    window_s }

(* Serve [items] to completion, [batch] at a time (set-up traffic). *)
let serve_batches front ~batch items =
  let rec go = function
    | [] -> ()
    | items ->
      let rec split k acc = function
        | x :: rest when k > 0 -> split (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let now_items, rest = split batch [] items in
      List.iter
        (fun (it : Gen.item) -> ignore (front.submit ~now:(clock ()) it.Gen.req))
        now_items;
      while front.busy () do
        ignore (front.step ~now:clock)
      done;
      go rest
  in
  go items
