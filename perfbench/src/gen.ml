(* Benchmark inputs as a pure function of the seed: arrival times, prompt
   and output lengths, tenants and token ids. Each purpose draws from its
   own named stream, so adding draws to one never shifts another. *)

let vocab = Llm.tiny.Llm.vocab

let stream ~seed name = Prng.create (Hashtbl.hash (seed, name))
let range r (lo, hi) = lo + Prng.int r (hi - lo + 1)
let ids r n = Array.init n (fun _ -> Prng.int r vocab)

type workload = Chat | Rag

let workload_of_string = function
  | "chat" -> Some Chat
  | "rag" -> Some Rag
  | _ -> None

let workload_name = function Chat -> "chat" | Rag -> "rag"

(* One generated request: [tenant] is 0 for chat. *)
type item = { req : Serve.Request.t; tenant : int }

(* Per-tenant system prompts; tenant 0 is the most popular. They depend
   on the seed only, so set-up warm-up (another stream) sees the same
   tenants as the timed phases. *)
let tenants ~seed =
  let r = stream ~seed "tenants" in
  Array.init Params.rag_tenants (fun _ ->
      ids r (Params.rag_block * range r Params.rag_system))

(* Zipf inverse CDF over tenant ranks. *)
let zipf_cdf =
  let w =
    Array.init Params.rag_tenants (fun i ->
        1.0 /. (float_of_int (i + 1) ** Params.rag_zipf_s))
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf u =
  let rec go i =
    if i >= Array.length zipf_cdf - 1 || u < zipf_cdf.(i) then i else go (i + 1)
  in
  go 0

(* Value of a uniform [u] in [0, 1) on the integer range [lo, hi]. *)
let pick u (lo, hi) =
  lo + min (hi - lo) (int_of_float (u *. float_of_int (hi - lo + 1)))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Stratified draws: one uniform in each of [k] equal slices of [0, 1),
   in random order. A block of requests built from them matches the
   length and tenant distributions closely, so seeds differ in order,
   pairing and token ids rather than in how much work they offer. *)
let strata r k =
  let a = Array.init k (fun i -> (float_of_int i +. Prng.float r) /. float_of_int k) in
  shuffle r a;
  a

let block = 32

let chat_item r ~id ~prompt_len ~output_len =
  let prompt = ids r prompt_len in
  { req = Serve.Request.make ~id ~prompt ~gen:(ids r output_len) (); tenant = 0 }

let rag_item r systems ~id ~tenant ~suffix_len ~output_len =
  let prompt = Array.append systems.(tenant) (ids r suffix_len) in
  { req = Serve.Request.make ~id ~prompt ~gen:(ids r output_len) (); tenant }

(* An endless request source for one workload and stream, drawn in
   stratified blocks of [block] requests. *)
let source workload ~seed name =
  let r = stream ~seed name in
  let systems = tenants ~seed in
  let pending = Queue.create () in
  let refill () =
    let a = strata r block and b = strata r block and c = strata r block in
    for i = 0 to block - 1 do
      Queue.add (a.(i), b.(i), c.(i)) pending
    done
  in
  fun ~id ->
    if Queue.is_empty pending then refill ();
    let a, b, c = Queue.pop pending in
    match workload with
    | Chat ->
      chat_item r ~id ~prompt_len:(pick a Params.chat_prompt)
        ~output_len:(pick b Params.chat_output)
    | Rag ->
      rag_item r systems ~id ~tenant:(zipf c) ~suffix_len:(pick a Params.rag_suffix)
        ~output_len:(pick b Params.rag_output)

(* Poisson arrivals over [0, duration), conditioned on their count: the
   [rate * duration] arrival times are sorted uniform draws, so every
   seed offers the same number of requests. [(due, item)] in due order. *)
let arrivals workload ~seed ~rate ~duration ~first_id =
  let ra = stream ~seed "arrivals" in
  let next = source workload ~seed "open" in
  let n = int_of_float (rate *. duration) in
  let times = Array.init n (fun _ -> duration *. Prng.float ra) in
  Array.sort compare times;
  List.mapi (fun i t -> (t, next ~id:(first_id + i))) (Array.to_list times)

(* Set-up traffic, drawn from its own stream, two output tokens each:
   enough to compile the prefill and decode shapes before timing. Chat
   covers every prompt length once. Rag serves the hottest tenants in
   popularity order, each twice in a row so that round-robin placement
   shows it to both replicas; these fill the prefix tries hottest-first. *)
let warmup workload ~seed ~first_id =
  let r = stream ~seed "warmup" in
  match workload with
  | Chat ->
    let lo, hi = Params.chat_prompt in
    List.init Params.chat_warmup (fun i ->
        chat_item r ~id:(first_id + i) ~prompt_len:(lo + (i mod (hi - lo + 1)))
          ~output_len:2)
  | Rag ->
    let systems = tenants ~seed in
    List.init (2 * Params.rag_warm_tenants) (fun i ->
        rag_item r systems ~id:(first_id + i) ~tenant:(i / 2)
          ~suffix_len:(pick (Prng.float r) Params.rag_suffix)
          ~output_len:2)
