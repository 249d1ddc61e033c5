(** Synthetic open-loop load: Poisson arrivals with configurable
    prompt/output length distributions, fully reproducible from a seed.
    The generator also plays the sampler's role — each request carries the
    pre-drawn token ids it feeds back during decode. *)

type dist = Fixed of int | Uniform of int * int  (** inclusive bounds *)

val sample : Prng.t -> dist -> int
val dist_to_string : dist -> string

type config = {
  seed : int;
  rate_hz : float;  (** mean Poisson arrival rate *)
  duration_s : float;  (** arrivals are drawn in [0, duration_s) *)
  prompt_len : dist;
  new_tokens : dist;
  deadline_s : float;  (** per-request SLO; [infinity] disables *)
  sys_prompt_len : int;
      (** tokens of a shared "system prompt" prepended to every prompt —
          drawn from a fixed seed, so traces of different seeds share it
          (the workload shape prefix sharing exploits); 0 disables *)
}

(** 20 req/s for 5 s, prompts of 4–12 tokens, 2–8 output tokens, no
    deadline. *)
val default : config

(** [generate cfg ~vocab] — arrival-time-sorted [(arrival_s, request)]
    trace with request ids 0, 1, 2, …; token ids are uniform over
    [0, vocab). *)
val generate : config -> vocab:int -> (float * Request.t) list
