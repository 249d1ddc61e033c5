(* Synthetic open-loop load: Poisson arrivals (exponential inter-arrival
   gaps drawn from the repo's deterministic splitmix PRNG) with
   configurable prompt/output length distributions. The generator is the
   "sampler" of this serving stack — there is no LM head, so each request
   carries the pre-drawn ids it will feed back during decode. Everything
   is reproducible from [seed]. *)

type dist = Fixed of int | Uniform of int * int

let sample rng = function
  | Fixed n -> n
  | Uniform (lo, hi) ->
    assert (hi >= lo);
    lo + Prng.int rng (hi - lo + 1)

let dist_to_string = function
  | Fixed n -> string_of_int n
  | Uniform (lo, hi) -> Printf.sprintf "%d..%d" lo hi

type config = {
  seed : int;
  rate_hz : float;  (* mean Poisson arrival rate *)
  duration_s : float;  (* arrivals are drawn in [0, duration_s) *)
  prompt_len : dist;
  new_tokens : dist;
  deadline_s : float;  (* per-request SLO; infinity disables *)
  sys_prompt_len : int;
      (* tokens of a shared "system prompt" prepended to every request's
         prompt (drawn once from a fixed seed) — the realistic workload
         shape prefix sharing exploits; 0 disables *)
}

let default =
  { seed = 42; rate_hz = 20.0; duration_s = 5.0;
    prompt_len = Uniform (4, 12); new_tokens = Uniform (2, 8);
    deadline_s = Float.infinity; sys_prompt_len = 0 }

(* exponential inter-arrival gap; 1 - U in (0, 1] keeps log finite *)
let exp_gap rng ~rate = -.Float.log (1.0 -. Prng.float rng) /. rate

let generate cfg ~vocab =
  assert (cfg.rate_hz > 0.0 && vocab > 0);
  let rng = Prng.create cfg.seed in
  let draw_ids n = Array.init n (fun _ -> Prng.int rng vocab) in
  (* shared system prompt: drawn from a fixed-seed stream, NOT the
     per-config stream, so traces of every seed prepend the same prefix —
     the cross-request sharing the prefix trie dedupes *)
  let sys_prompt =
    if cfg.sys_prompt_len <= 0 then [||]
    else
      let srng = Prng.create 0x5157 in
      Array.init cfg.sys_prompt_len (fun _ -> Prng.int srng vocab)
  in
  let rec go acc id at =
    let at = at +. exp_gap rng ~rate:cfg.rate_hz in
    if at >= cfg.duration_s then List.rev acc
    else
      let prompt =
        Array.append sys_prompt (draw_ids (max 1 (sample rng cfg.prompt_len)))
      in
      let gen = draw_ids (max 1 (sample rng cfg.new_tokens)) in
      let req =
        (* the request id doubles as the causal-trace id: ids are unique
           within a trace, and a trace is routed as a whole *)
        Request.make ~id ~trace:id ~prompt ~gen ~deadline_s:cfg.deadline_s ()
      in
      go ((at, req) :: acc) (id + 1) at
  in
  go [] 0 0.0
