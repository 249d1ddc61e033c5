(* Tests of the benchmark's own checks: the serving oracle must reject a
   request whose hidden states differ from a solo replay by one value or
   one token, the kernel tolerance check must reject an output outside
   its tolerance, percentiles are by nearest rank, and inputs must be a
   pure function of the seed. *)

open Perfbench

let checkb = Alcotest.(check bool)

(* Two requests served to completion by a default scheduler. *)
let served () =
  let llm = Llm.create ~rng:(Prng.create 5) Llm.tiny in
  let sched = Serve.Scheduler.create llm in
  let src = Gen.source Gen.Chat ~seed:3 "test" in
  let reqs = List.init 2 (fun id -> (src ~id).Gen.req) in
  List.iter (fun r -> ignore (Serve.Scheduler.submit sched ~now:0.0 r)) reqs;
  Serve.Scheduler.drain sched ~now:(fun () -> 0.0);
  (llm, reqs)

let nudge t i =
  let v = Tensor.get_flat t i in
  Tensor.set_flat t i (v +. if v = 0.0 then 1e-6 else Float.abs v *. 1e-5)

let test_oracle_accepts () =
  let llm, reqs = served () in
  List.iter
    (fun r -> checkb "served request matches replay" true (Oracle.request_ok llm r))
    reqs

let test_oracle_rejects_value () =
  let llm, reqs = served () in
  let r = List.hd reqs in
  let outs = Serve.Request.outputs r in
  nudge (List.nth outs (List.length outs / 2)) 3;
  checkb "one changed value fails" false (Oracle.request_ok llm r)

let test_oracle_rejects_missing_token () =
  let llm, reqs = served () in
  let r = List.hd reqs in
  r.Serve.Request.outputs <- List.tl r.Serve.Request.outputs;
  checkb "a missing token fails" false (Oracle.request_ok llm r)

let test_oracle_rejects_unfinished () =
  let llm, reqs = served () in
  let r = List.hd reqs in
  r.Serve.Request.state <- Serve.Request.Cancelled;
  checkb "an unfinished request fails" false (Oracle.request_ok llm r)

let test_kernel_tolerance () =
  let want =
    Tensor.init Datatype.F32 [| 4; 4 |] (fun i -> float_of_int (i.(0) + i.(1)))
  in
  let got = Tensor.copy want in
  checkb "equal passes" true (Oracle.close ~tol:Oracle.tol_f32 got want);
  Tensor.set_flat got 5 (Tensor.get_flat got 5 +. 1e-2);
  checkb "fp32 tolerance rejects 1e-2" false
    (Oracle.close ~tol:Oracle.tol_f32 got want);
  checkb "bf16 tolerance accepts 1e-2" true
    (Oracle.close ~tol:Oracle.tol_bf16 got want);
  checkb "shape mismatch fails" false
    (Oracle.close ~tol:Oracle.tol_bf16 (Tensor.create Datatype.F32 [| 2; 8 |]) want)

let test_nearest_rank () =
  let xs = List.init 200 float_of_int in
  checkb "p95 of 0..199 is 189" true (Stats.pct xs 0.95 = 189.0);
  checkb "p50 of 0..199 is 99" true (Stats.median xs = 99.0)

let test_inputs_from_seed () =
  let ids seed =
    Gen.arrivals Gen.Rag ~seed ~rate:10.0 ~duration:3.0 ~first_id:0
    |> List.map (fun (t, (it : Gen.item)) ->
           (t, it.Gen.tenant, it.Gen.req.Serve.Request.prompt))
  in
  checkb "same seed, same inputs" true (ids 7 = ids 7);
  checkb "other seed, other inputs" false (ids 7 = ids 8);
  checkb "count fixed by rate and duration" true (List.length (ids 9) = 30)

let () =
  Alcotest.run "perfbench"
    [ ( "oracle",
        [ Alcotest.test_case "accepts served requests" `Quick test_oracle_accepts;
          Alcotest.test_case "rejects a changed value" `Quick
            test_oracle_rejects_value;
          Alcotest.test_case "rejects a missing token" `Quick
            test_oracle_rejects_missing_token;
          Alcotest.test_case "rejects an unfinished request" `Quick
            test_oracle_rejects_unfinished;
          Alcotest.test_case "kernel tolerance" `Quick test_kernel_tolerance ] );
      ( "inputs",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_nearest_rank;
          Alcotest.test_case "pure function of the seed" `Quick
            test_inputs_from_seed ] ) ]
