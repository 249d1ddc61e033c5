(* Log-bucketed latency/value histograms, interned in a global table like
   Counter so any domain or systhread can observe into the same histogram.
   Buckets are geometrically spaced (growth factor 2^(1/8), ~9% relative
   resolution) covering [1e-9, ~1e9); observations outside clamp to the
   edge buckets. Quantiles are answered from the bucket counts with the
   bucket's geometric midpoint as representative, clamped to the exact
   observed [min, max] so degenerate distributions report exactly. *)

let growth = Float.exp (Float.log 2.0 /. 8.0)
let log_growth = Float.log growth
let lo = 1e-9
let n_buckets = 480 (* lo * growth^480 ~ 1.2e9 *)

type t = {
  hname : string;
  lock : Mutex.t;
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let table : (string, t) Hashtbl.t = Hashtbl.create 16
let table_lock = Mutex.create ()

let make name =
  { hname = name; lock = Mutex.create (); buckets = Array.make n_buckets 0;
    count = 0; sum = 0.0; min_v = Float.infinity;
    max_v = Float.neg_infinity }

let find_or_create name =
  Mutex.lock table_lock;
  let h =
    match Hashtbl.find_opt table name with
    | Some h -> h
    | None ->
      let h = make name in
      Hashtbl.replace table name h;
      h
  in
  Mutex.unlock table_lock;
  h

let name h = h.hname

let bucket_of v =
  if not (v > lo) then 0
  else
    let i = int_of_float (Float.log (v /. lo) /. log_growth) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

(* geometric midpoint of bucket i: lo * growth^(i + 1/2) *)
let representative i =
  lo *. Float.exp ((float_of_int i +. 0.5) *. log_growth)

let observe h v =
  Mutex.lock h.lock;
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  Mutex.unlock h.lock

let count h = h.count
let sum h = h.sum
let mean h = if h.count > 0 then h.sum /. float_of_int h.count else Float.nan
let min_value h = if h.count > 0 then h.min_v else Float.nan
let max_value h = if h.count > 0 then h.max_v else Float.nan

let quantile h q =
  Mutex.lock h.lock;
  let r =
    if h.count = 0 then Float.nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      (* nearest-rank over the bucketed distribution *)
      let rank = int_of_float (Float.round (q *. float_of_int (h.count - 1))) in
      let acc = ref 0 and found = ref (n_buckets - 1) in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + h.buckets.(i);
           if !acc > rank then begin
             found := i;
             raise Exit
           end
         done
       with Exit -> ());
      Float.max h.min_v (Float.min h.max_v (representative !found))
    end
  in
  Mutex.unlock h.lock;
  r

let merge_into src ~into =
  if src != into then begin
    (* consistent lock order so concurrent opposite merges cannot deadlock *)
    let first, second =
      if src.hname < into.hname then (src, into) else (into, src)
    in
    Mutex.lock first.lock;
    Mutex.lock second.lock;
    for i = 0 to n_buckets - 1 do
      into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
    done;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v;
    Mutex.unlock second.lock;
    Mutex.unlock first.lock
  end

let all () =
  Mutex.lock table_lock;
  let l = Hashtbl.fold (fun _ h acc -> h :: acc) table [] in
  Mutex.unlock table_lock;
  List.sort (fun a b -> compare a.hname b.hname) l

let reset h =
  Mutex.lock h.lock;
  Array.fill h.buckets 0 n_buckets 0;
  h.count <- 0;
  h.sum <- 0.0;
  h.min_v <- Float.infinity;
  h.max_v <- Float.neg_infinity;
  Mutex.unlock h.lock

let reset_all () = List.iter reset (all ())
