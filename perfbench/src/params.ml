(* Fixed parameters of the benchmark's workloads. The open-loop rates are
   about a third of the closed-loop capacity this benchmark measured on a
   2-vCPU x86-64 VM when it was introduced (at half, queueing amplified
   host noise in the latencies too much), and the SLO limits were set
   once from that host's open-loop numbers. Changing any value here
   redefines the benchmark: compare runs only across identical values. *)

(* Shares of [--seconds] given to each timed phase; they sum to 1. *)
let kernel_share = 0.15
let open_share = 0.70
let closed_share = 0.15

(* Serving requests per process whose hidden states are replayed bit for
   bit. *)
let oracle_sample = 8

type serving = {
  rate_per_s : float;  (** open-loop Poisson arrival rate *)
  ttft_limit_ms : float;  (** SLO on time to first token *)
  gap_limit_ms : float;  (** SLO on a request's mean gap between tokens *)
}

(* chat: unique prompts of 8-24 tokens, 16-48 output tokens, one
   scheduler with the default configuration. *)
let chat =
  { rate_per_s = 7.5; ttft_limit_ms = 20.0; gap_limit_ms = 6.0 }

(* Requests served during set-up, covering every prompt length. *)
let chat_warmup = 17

let chat_prompt = (8, 24)
let chat_output = (16, 48)

(* rag: per-tenant system prompts of 64-160 tokens (whole 16-token KV
   blocks), Zipf tenant popularity, a unique 8-40 token suffix and 4-16
   output tokens, over the router's default two replicas with paged KV
   and the prefix trie. *)
let rag =
  { rate_per_s = 10.0; ttft_limit_ms = 50.0; gap_limit_ms = 10.0 }

let rag_tenants = 24

(* Tenants served during set-up, hottest first: about as many as the
   trie's pin budget holds. *)
let rag_warm_tenants = 14
let rag_zipf_s = 1.1
let rag_system = (4, 10) (* in KV blocks of [rag_block] tokens *)
let rag_suffix = (8, 40)
let rag_output = (4, 16)
let rag_block = 16

(* Arena blocks per replica. The trie may pin half of them (its default
   budget): room for the hottest tenants' prompts, not for the tail's. *)
let rag_arena_blocks = 224

(* Shapes the per-layer replays use: chat's mean decode context, and
   rag's mean suffix prefill over its mean shared context. *)
let decode_context = 32
let prefill_rows = 24
let prefill_context = 112
