(* Tests for lib/front, the serve/chaos options shared by the parlooper
   CLI and the bench harness: defaults equal the library records, a bare
   chaos run is the committed smoke baseline's "chaos" entry, every
   serve/chaos command line in the Makefile parses to the config it
   means, and out-of-range values are rejected. Command lines go through
   Cmdliner.Cmd.eval_value, as the tools' own [Front.eval] does. *)

open Cmdliner

let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore

let eval cmd words =
  Cmd.eval_value ~help:quiet ~err:quiet
    ~argv:(Array.of_list (Cmd.name cmd :: words))
    cmd

let parse cmd words =
  match eval cmd words with
  | Ok (`Ok v) -> v
  | Ok (`Help | `Version) -> Alcotest.fail "help instead of a config"
  | Error _ ->
    Alcotest.failf "%s %s: rejected" (Cmd.name cmd) (String.concat " " words)

(* [parlooper serve] and [parlooper chaos] *)
let serve_cmd =
  Cmd.v (Cmd.info "serve")
    Term.(const (fun _ s -> s) $ Front.telemetry $ Front.serve_config)

let chaos_cmd = Cmd.v (Cmd.info "chaos") Front.chaos_config

(* bench's own flags around the shared terms, as in bench/main.ml *)
let bench_cmd =
  let file name = Arg.(value & opt (some string) None & info [ name ]) in
  Cmd.v (Cmd.info "bench")
    Term.(
      const (fun _ serve chaos _ _ _ s c -> (serve, chaos, s, c))
      $ Arg.(value & pos_all string [] & info [])
      $ Arg.(value & flag & info [ "serve" ])
      $ Arg.(value & flag & info [ "chaos" ])
      $ file "json" $ file "compare" $ Front.telemetry $ Front.serve_config
      $ Front.chaos_config)

let serve0 =
  { Front.load = Serve.Load_gen.default;
    fleet = { Cluster.Router.default_config with Cluster.Router.replicas = 1 };
    hard_kill = false;
    live_metrics = None;
    live_interval_ms = 500;
    trace_dir = None;
    trace_sample = 16 }

let load0 = Serve.Load_gen.default
let fleet0 = serve0.Front.fleet
let sched0 = Serve.Scheduler.default_config
let solo = Cluster.Chaos.solo

(* ---- defaults ---- *)

let test_defaults () =
  Alcotest.(check bool) "serve: library records" true
    (parse serve_cmd [] = serve0);
  Alcotest.(check bool) "chaos: Chaos.solo" true (parse chaos_cmd [] = solo);
  Alcotest.(check int) "one seed default" load0.Serve.Load_gen.seed
    solo.Cluster.Chaos.seed;
  Alcotest.(check bool) "one scheduler default" true
    ({ solo.Cluster.Chaos.scheduler with
       Serve.Scheduler.max_batch = sched0.Serve.Scheduler.max_batch;
       nthreads = sched0.Serve.Scheduler.nthreads;
       kv_cap = sched0.Serve.Scheduler.kv_cap;
       max_retries = sched0.Serve.Scheduler.max_retries;
       check_numerics = sched0.Serve.Scheduler.check_numerics }
    = sched0)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The committed baseline's "chaos" entry is keyed on its config; a
   bare [bench --chaos] must reproduce each key. *)
let test_bare_chaos_is_baseline () =
  let module J = Telemetry.Json_check in
  let field k = function
    | J.Obj kv -> List.assoc k kv
    | _ -> Alcotest.fail "expected an object"
  in
  let baseline = J.parse (read_file "../bench/baselines/smoke.json") in
  let entry =
    match field "benches" baseline with
    | J.Arr l -> List.find (fun e -> field "name" e = J.Str "chaos") l
    | _ -> Alcotest.fail "no benches array"
  in
  let _, chaos, _, c = parse bench_cmd [ "--chaos" ] in
  Alcotest.(check bool) "--chaos" true chaos;
  let s = c.Cluster.Chaos.scheduler in
  let expect =
    [ ("seed", string_of_int c.Cluster.Chaos.seed);
      ("requests", string_of_int c.Cluster.Chaos.requests);
      ("plan", Fault.plan_to_string (Cluster.Chaos.plan c));
      ("paged", string_of_bool s.Serve.Scheduler.paged);
      ("block_size", string_of_int s.Serve.Scheduler.block_size);
      ("num_blocks", string_of_int s.Serve.Scheduler.num_blocks);
      ("spec_k", string_of_int s.Serve.Scheduler.spec_k);
      ("draft_layers", string_of_int s.Serve.Scheduler.draft_layers);
      ("sys_prompt", string_of_int c.Cluster.Chaos.shared_prefix) ]
  in
  let config =
    match field "config" entry with
    | J.Obj kv ->
      List.map
        (function k, J.Str v -> (k, v) | k, _ -> Alcotest.failf "%s" k)
        kv
    | _ -> Alcotest.fail "no config"
  in
  Alcotest.(check (list (pair string string)))
    "baseline chaos config"
    (List.sort compare config)
    (List.sort compare expect);
  Alcotest.(check bool) "one unsharded replica" true
    (c.Cluster.Chaos.replicas = 1 && c.Cluster.Chaos.shards = 1
    && not c.Cluster.Chaos.disaggregate)

(* ---- the Makefile's command lines ---- *)

type expect = Serve of Front.serve | Chaos of Cluster.Chaos.config

let with_sched f = { fleet0 with Cluster.Router.scheduler = f sched0 }

let makefile_lines =
  [ ( "bench",
      "--serve --duration 2 --json /tmp/bench.json",
      Serve { serve0 with load = { load0 with duration_s = 2.0 } } );
    ("bench", "--chaos --json /tmp/bench-chaos.json", Chaos solo);
    ( "bench",
      "--chaos --replicas 3 --shards 2 --json /tmp/bench-cluster.json",
      Chaos { Cluster.Chaos.default with replicas = 3; shards = 2 } );
    ( "bench",
      "--chaos --replicas 2 --disaggregate --requests 16",
      Chaos
        { Cluster.Chaos.default with
          replicas = 2; disaggregate = true; requests = 16 } );
    ( "bench",
      "--serve --shards 2 --duration 1 --json /tmp/bench-shards.json",
      Serve
        { serve0 with
          load = { load0 with duration_s = 1.0 };
          fleet = { fleet0 with shards = 2 } } );
    ("bench", "--chaos --requests 12", Chaos { solo with requests = 12 });
    ( "bench",
      "paged --serve --paged --block-size 16 --num-blocks 128 --spec-decode 4 \
       --sys-prompt 32 --duration 2 --json /tmp/bench-paged.json",
      Serve
        { serve0 with
          load = { load0 with duration_s = 2.0; sys_prompt_len = 32 };
          fleet =
            with_sched (fun s ->
                { s with
                  paged = true; block_size = 16; num_blocks = 128; spec_k = 4 })
        } );
    ( "bench",
      "--chaos --paged --spec-decode 4 --sys-prompt 32",
      Chaos
        { solo with
          shared_prefix = 32;
          scheduler = { solo.scheduler with paged = true; spec_k = 4 } } );
    ( "bench",
      "--chaos --replicas 3 --hard-kill --json /tmp/bench-migrate.json",
      Chaos Cluster.Chaos.hard_kill );
    ( "bench",
      "--chaos --replicas 3 --hard-kill --paged --sys-prompt 12",
      Chaos
        { Cluster.Chaos.hard_kill with
          shared_prefix = 12;
          scheduler = { Cluster.Chaos.hard_kill.scheduler with paged = true }
        } );
    ( "bench",
      "--serve --duration 2 --online-tune --json /tmp/bench-tune-serve.json",
      Serve
        { serve0 with
          load = { load0 with duration_s = 2.0 };
          fleet = with_sched (fun s -> { s with online_tune = true }) } );
    ( "bench",
      "recorder gemm llm --chaos --compare bench/baselines/smoke.json",
      Chaos solo );
    ( "parlooper",
      "serve --rate 60 --duration 2 --deadline-ms 30 --replicas 3 \
       --disaggregate --trace-dir /tmp/parlooper-traces --trace-sample 8",
      Serve
        { serve0 with
          load =
            { load0 with rate_hz = 60.0; duration_s = 2.0; deadline_s = 0.03 };
          fleet = { fleet0 with replicas = 3; disaggregate = true };
          trace_dir = Some "/tmp/parlooper-traces";
          trace_sample = 8 } ) ]

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(* The serve/chaos command lines of the Makefile's recipes, as (tool,
   arguments): bench runs passing --serve or --chaos, and parlooper
   serve or chaos. *)
let makefile_commands () =
  let after sep line =
    let n = String.length sep in
    let rec go i =
      if i + n > String.length line then None
      else if String.sub line i n = sep then
        Some (String.sub line (i + n) (String.length line - i - n))
      else go (i + 1)
    in
    go 0
  in
  String.split_on_char '\n' (read_file "../Makefile")
  |> List.filter (fun line -> String.starts_with ~prefix:"\t" line)
  |> List.filter_map (fun line ->
      match after "bench/main.exe -- " line with
      | Some args
        when List.exists
               (fun w -> w = "--serve" || w = "--chaos")
               (words args) ->
        Some ("bench", String.concat " " (words args))
      | Some _ -> None
      | None -> (
        match after "parlooper_cli.exe -- " line with
        | Some args -> (
          match words args with
          | ("serve" | "chaos") :: _ as w ->
            Some ("parlooper", String.concat " " w)
          | _ -> None)
        | None -> None))

let test_makefile_lines () =
  Alcotest.(check (list (pair string string)))
    "the Makefile's serve/chaos lines are the table's"
    (List.sort compare (makefile_commands ()))
    (List.sort compare (List.map (fun (t, l, _) -> (t, l)) makefile_lines));
  List.iter
    (fun (tool, line, expect) ->
      let ok =
        match (tool, words line, expect) with
        | "bench", w, Serve e ->
          let serve, _, s, _ = parse bench_cmd w in
          serve && s = e
        | "bench", w, Chaos e ->
          let _, chaos, _, c = parse bench_cmd w in
          chaos && c = e
        | _, "serve" :: w, Serve e -> parse serve_cmd w = e
        | _, "chaos" :: w, Chaos e -> parse chaos_cmd w = e
        | _ -> false
      in
      Alcotest.(check bool) (tool ^ " " ^ line) true ok)
    makefile_lines

(* ROADMAP item 9's reproducer of a mid-decode arena exhaustion *)
let test_arena_reproducer () =
  let s =
    parse serve_cmd
      (words
         "--paged --block-size 16 --num-blocks 24 --prompt-min 24 \
          --prompt-max 48 --tokens-min 32 --tokens-max 64 --rate 60 \
          --duration 2 --threads 2")
  in
  Alcotest.(check bool) "config" true
    (s
    = { serve0 with
        load =
          { load0 with
            rate_hz = 60.0;
            duration_s = 2.0;
            prompt_len = Serve.Load_gen.Uniform (24, 48);
            new_tokens = Serve.Load_gen.Uniform (32, 64) };
        fleet =
          with_sched (fun s ->
              { s with
                paged = true;
                block_size = 16;
                num_blocks = 24;
                nthreads = Some 2 }) })

(* ---- checks ---- *)

let test_rejected () =
  let rejected cmd line =
    match eval cmd (words line) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s %s: accepted" (Cmd.name cmd) line
  in
  List.iter (rejected serve_cmd)
    [ "--replicas 0"; "--block-size 0"; "--placement foo"; "--rate 0";
      "--duration -1"; "--shards 0"; "--num-blocks 0"; "--draft-layers 0";
      "--spec-decode -1"; "--sys-prompt -1"; "--policy lifo";
      "--prompt-min 9 --prompt-max 8"; "--hard-kill" ];
  List.iter (rejected chaos_cmd)
    [ "--plan serve.decode"; "--plan serve.decode:boom"; "--requests 0";
      "--replicas 0"; "--hard-kill"; "--block-size 0" ]

let test_zero_accepted () =
  let s = parse serve_cmd (words "--spec-decode 0 --sys-prompt 0") in
  Alcotest.(check int) "spec-decode 0 is off" 0
    s.Front.fleet.Cluster.Router.scheduler.Serve.Scheduler.spec_k;
  Alcotest.(check int) "sys-prompt 0 is off" 0
    s.Front.load.Serve.Load_gen.sys_prompt_len;
  let c = parse chaos_cmd (words "--spec-decode 0 --sys-prompt 0") in
  Alcotest.(check bool) "chaos: the solo preset" true (c = solo)

let test_plan_takes_seed () =
  let c = parse chaos_cmd (words "--seed 7 --plan serve.decode:exn@n3+11") in
  Alcotest.(check int) "plan seed" 7 (Cluster.Chaos.plan c).Fault.seed;
  Alcotest.(check string) "plan" "serve.decode:exn@n3+11"
    (Fault.plan_to_string (Cluster.Chaos.plan c))

let () =
  Alcotest.run "front"
    [
      ( "defaults",
        [
          Alcotest.test_case "library records" `Quick test_defaults;
          Alcotest.test_case "bare --chaos is the baseline entry" `Quick
            test_bare_chaos_is_baseline;
        ] );
      ( "command lines",
        [
          Alcotest.test_case "Makefile serve/chaos lines" `Quick
            test_makefile_lines;
          Alcotest.test_case "arena exhaustion reproducer" `Quick
            test_arena_reproducer;
        ] );
      ( "checks",
        [
          Alcotest.test_case "out-of-range values rejected" `Quick
            test_rejected;
          Alcotest.test_case "zero spec-decode and sys-prompt accepted" `Quick
            test_zero_accepted;
          Alcotest.test_case "--plan takes --seed" `Quick test_plan_takes_seed;
        ] );
    ]
