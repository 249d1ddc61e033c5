(* One benchmark process: one workload, one seed.

     main.exe --workload chat|rag --seed N --seconds S --trace 0|1

   --trace 0 prints, as its last line, one JSON object with the raw
   samples of the end-to-end metrics; perfbench/run.py pools several
   such processes and computes the metrics. --trace 1 re-runs the same
   inputs with tracing and prints every per-layer metric with its unit,
   then the result JSON. Exits 1 when an output check fails and 2 on bad
   arguments. *)

open Perfbench

let usage = "main.exe --workload chat|rag --seed N --seconds S --trace 0|1"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let raw_json (o : Bench.outcome) (r : Bench.raw) =
  let kernel (name, flops, times) =
    Printf.sprintf "%S: {\"flops\": %s, \"seconds\": %s}" name
      (Report.json_number flops) (Report.json_floats times)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"raw\": {\"setup_s\": \
     %s, \"rss_peak_mb\": %s, \"ttft_ms\": %s, \"gaps_ms\": %s, \
     \"open_attempted\": %d, \"slo_met\": %d, \"window_tokens\": %d, \
     \"window_s\": %s, \"kernels\": {%s}}}"
    o.Bench.correct o.Bench.attempted o.Bench.failed
    (Report.json_number r.Bench.setup_s)
    (Report.json_number r.Bench.rss_peak_mb)
    (Report.json_floats r.Bench.ttft_ms)
    (Report.json_floats r.Bench.gaps_ms)
    r.Bench.open_attempted r.Bench.slo_met r.Bench.window_tokens
    (Report.json_number r.Bench.window_s)
    (String.concat ", " (List.map kernel r.Bench.kernels))

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let number r name conv s =
    match conv s with
    | Some v -> r := Some v
    | None -> fail (Printf.sprintf "%s expects a number, got %S" name s)
  in
  let specs =
    [ ( "--workload",
        Arg.String
          (fun s ->
            match Gen.workload_of_string s with
            | Some w -> workload := Some w
            | None -> fail ("unknown workload " ^ s)),
        " chat or rag" );
      ("--seed", Arg.String (number seed "--seed" int_of_string_opt), " input seed");
      ( "--seconds",
        Arg.String (number seconds "--seconds" float_of_string_opt),
        " timed seconds" );
      ("--trace", Arg.String (number trace "--trace" int_of_string_opt), " 0 or 1") ]
  in
  Arg.parse specs (fun s -> fail ("unexpected argument " ^ s)) usage;
  let need name = function Some v -> v | None -> fail (name ^ " is required") in
  let workload = need "--workload" !workload and seed = need "--seed" !seed in
  let seconds = need "--seconds" !seconds and trace = need "--trace" !trace in
  if not (seconds > 0.0) then fail "--seconds must be positive";
  if trace <> 0 && trace <> 1 then fail "--trace must be 0 or 1";
  Printf.printf "perfbench process workload=%s seed=%d seconds=%g trace=%d\n%!"
    (Gen.workload_name workload) seed seconds trace;
  let o = Bench.run workload ~seed ~seconds ~trace:(trace = 1) in
  (match o.Bench.result with
  | `Raw r -> print_endline (raw_json o r)
  | `Layers ms ->
    Report.print_lines ms;
    print_endline
      (Report.json ~correct:o.Bench.correct ~attempted:o.Bench.attempted
         ~failed:o.Bench.failed ms));
  if not o.Bench.correct then exit 1
