(* One inference request through its serving lifecycle:

     arrival -> Queued -> Prefilling -> Decoding -> Finished
            \-> Rejected     (bounded-queue backpressure, or already
                              past deadline at submit)
            \-> Cancelled    (deadline enforcement mid-flight)
            \-> Failed       (prefill/decode failed after bounded retries)

   The request carries everything the scheduler needs to run it without
   callbacks: the prompt token ids (prefill input), the pre-drawn ids fed
   back during decode (there is no LM head — the load generator plays the
   role of the sampler), a latency SLO, and mutable slots the scheduler
   fills in as the request advances. Timestamps are relative seconds:
   [arrival_s] on the serving clock, [ttft_s]/[finish_s] relative to
   arrival. *)

type state =
  | Queued
  | Prefilling
  | Decoding
  | Finished
  | Rejected
  | Cancelled
  | Failed

let state_name = function
  | Queued -> "queued"
  | Prefilling -> "prefilling"
  | Decoding -> "decoding"
  | Finished -> "finished"
  | Rejected -> "rejected"
  | Cancelled -> "cancelled"
  | Failed -> "failed"

(* compact code carried in Trace_end recorder events; must agree with
   Telemetry.Trace.state_name *)
let state_code = function
  | Queued -> 0
  | Prefilling -> 1
  | Decoding -> 2
  | Finished -> 3
  | Rejected -> 4
  | Cancelled -> 5
  | Failed -> 6

(* a request in a terminal state will never change again; every ledger
   entry must be terminal once the scheduler drains *)
let terminal t_state =
  match t_state with
  | Finished | Rejected | Cancelled | Failed -> true
  | Queued | Prefilling | Decoding -> false

type t = {
  id : int;
  trace : int;  (* causal-trace id tagging this request's recorder events *)
  prompt : int array;
  gen : int array;
      (* gen.(k) is the input id of decode step k+1; the request emits
         [new_tokens] hidden states: one from prefill, the rest from
         decode steps feeding gen.(0) .. gen.(new_tokens - 2) *)
  new_tokens : int;
  deadline_s : float;  (* SLO: total-latency budget from arrival *)
  mutable arrival_s : float;
  mutable state : state;
  mutable ttft_s : float;  (* first-token latency; nan until prefilled *)
  mutable finish_s : float;  (* total latency; nan until finished *)
  mutable outputs : Tensor.t list;  (* per-token hidden states, newest first *)
  mutable out_rows : rows option;
}

(* [outputs]' backing store: views of [buf]'s first [used] rows *)
and rows = { buf : Tensor.t; view : int -> Tensor.t; mutable used : int }

let make ~id ?trace ~prompt ~gen ?(deadline_s = Float.infinity) () =
  assert (Array.length prompt > 0);
  assert (Array.length gen > 0);
  let trace = match trace with Some tr -> tr | None -> id in
  { id; trace; prompt; gen; new_tokens = Array.length gen; deadline_s;
    arrival_s = 0.0; state = Queued; ttft_s = Float.nan;
    finish_s = Float.nan; outputs = []; out_rows = None }

(* absolute deadline on the serving clock *)
let deadline_abs t = t.arrival_s +. t.deadline_s

let met_deadline t = t.state = Finished && t.finish_s <= t.deadline_s

let reset_outputs t =
  t.outputs <- [];
  t.out_rows <- None

(* A kept token costs a view and its row of one per-request buffer, not
   a tensor of its own: a closed loop that keeps every finished request
   holds memory in proportion to the tokens it served. *)
let push_output t x ~row =
  let cols = x.Tensor.dims.(1) in
  let r =
    match t.out_rows with
    | Some r
      when r.used < r.buf.Tensor.dims.(0) && r.buf.Tensor.dims.(1) = cols ->
      r
    | _ ->
      let buf = Tensor.create Datatype.F32 [| t.new_tokens; cols |] in
      let r = { buf; view = Tensor.row_views buf; used = 0 } in
      t.out_rows <- Some r;
      r
  in
  let v = r.view r.used in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub x.Tensor.data (row * cols) cols)
    v.Tensor.data;
  r.used <- r.used + 1;
  t.outputs <- v :: t.outputs

(* per-token hidden states in emission order *)
let outputs t = List.rev t.outputs
