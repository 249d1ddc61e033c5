type config = {
  name : string;
  hidden : int;
  heads : int;
  intermediate : int;
  layers : int;
  vocab : int;
  gated_ffn : bool;
}

let gptj_6b =
  { name = "GPTJ-6B"; hidden = 4096; heads = 16; intermediate = 16384;
    layers = 28; vocab = 50400; gated_ffn = false }

let llama2_13b =
  { name = "Llama2-13B"; hidden = 5120; heads = 40; intermediate = 13824;
    layers = 40; vocab = 32000; gated_ffn = true }

let tiny =
  { name = "tiny"; hidden = 32; heads = 2; intermediate = 64; layers = 2;
    vocab = 64; gated_ffn = true }

(* Tensor parallelism is a property of the layer: every projection is
   column-split (split along its OUTPUT features) into [shards] slices.
   Shard s owns a contiguous, block-aligned slice of each output and
   computes it with the full input. The "all-reduce" of Megatron-style
   row splits never happens — each float of every intermediate tensor is
   produced by exactly one shard with the same k-reduction order as the
   unsharded GEMM, and shards only concatenate (disjoint column writes
   into a shared tensor), so any shard count is bit-identical to one by
   construction. The price is that every shard reads the full input of
   each projection; for the bandwidth-bound decode step the weights
   dominate traffic, and those really are split 1/shards per shard. *)

(* columns [col0, col0 + fc.out_features) of a projection's output *)
type slice = { fc : Fc.t; col0 : int }

(* one shard's share of a decoder layer *)
type part = {
  q : slice;
  k : slice;
  v : slice;
  o : slice;
  up : slice;
  gate : slice option;
  down : slice;
  h0 : int;  (** first attention head owned by this shard *)
  h1 : int;  (** one past the last owned head *)
}

type layer = {
  attention : Attention.t;
  ffn_up : Fc.t;
  ffn_gate : Fc.t option;  (** SwiGLU gate projection *)
  ffn_down : Fc.t;
  ln1_gamma : Tensor.t;
  ln1_beta : Tensor.t;
  ln2_gamma : Tensor.t;
  ln2_beta : Tensor.t;
  parts : part array;  (** one per shard *)
}

type t = { cfg : config; decoder : layer array }

(* output features [r0, r1) of a projection, written from column r0 *)
let slice_fc (fc : Fc.t) r0 r1 = { fc = Fc.slice fc ~r0 ~r1; col0 = r0 }

(* one shard's heads, hidden columns and intermediate columns *)
let widths cfg ~shards =
  let heads = cfg.heads / shards in
  (heads, heads * (cfg.hidden / cfg.heads), cfg.intermediate / shards)

(* [l]'s weights cut into [shards] parts; the caller has checked that
   [shards] divides the heads and the intermediate width *)
let split cfg ~shards (l : layer) =
  let heads, hchunk, ichunk = widths cfg ~shards in
  let part s =
    let h0 = s * hchunk and i0 = s * ichunk in
    let a = l.attention in
    let hcols fc = slice_fc fc h0 (h0 + hchunk) in
    let icols fc = slice_fc fc i0 (i0 + ichunk) in
    { q = hcols a.Attention.wq; k = hcols a.Attention.wk;
      v = hcols a.Attention.wv; o = hcols a.Attention.wo;
      up = icols l.ffn_up; gate = Option.map icols l.ffn_gate;
      down = hcols l.ffn_down; h0 = s * heads; h1 = (s + 1) * heads }
  in
  { l with parts = Array.init shards part }

let ln_params rng hidden =
  ( Tensor.init Datatype.F32 [| 1; hidden |] (fun _ ->
        1.0 +. Prng.uniform rng ~scale:0.02),
    Tensor.random Datatype.F32 [| 1; hidden |] rng ~scale:0.02 )

let create ~rng ?(dtype = Datatype.F32) ?(block = 16) ?(spec = Gemm.default_spec)
    cfg =
  let mk_layer () =
    let attention =
      Attention.create ~rng ~dtype ~block ~spec ~hidden:cfg.hidden
        ~heads:cfg.heads ()
    in
    let ffn_up =
      Fc.create ~rng ~dtype ~block ~spec
        ~act:(if cfg.gated_ffn then Fc.Linear else Fc.Gelu_act)
        ~in_features:cfg.hidden ~out_features:cfg.intermediate ()
    in
    let ffn_gate =
      if cfg.gated_ffn then
        Some
          (Fc.create ~rng ~dtype ~block ~spec ~in_features:cfg.hidden
             ~out_features:cfg.intermediate ())
      else None
    in
    let ffn_down =
      Fc.create ~rng ~dtype ~block ~spec ~in_features:cfg.intermediate
        ~out_features:cfg.hidden ()
    in
    let ln1_gamma, ln1_beta = ln_params rng cfg.hidden in
    let ln2_gamma, ln2_beta = ln_params rng cfg.hidden in
    split cfg ~shards:1
      { attention; ffn_up; ffn_gate; ffn_down; ln1_gamma; ln1_beta;
        ln2_gamma; ln2_beta; parts = [||] }
  in
  { cfg; decoder = Array.init cfg.layers (fun _ -> mk_layer ()) }

let config t = t.cfg
let shards t = Array.length t.decoder.(0).parts

let shard t ~shards =
  let cfg = t.cfg in
  if shards < 1 then Error "Llm.shard: shards must be >= 1"
  else if cfg.heads mod shards <> 0 then
    Error
      (Printf.sprintf "Llm.shard: heads (%d) not divisible by shards (%d)"
         cfg.heads shards)
  else if cfg.intermediate mod shards <> 0 then
    Error
      (Printf.sprintf
         "Llm.shard: intermediate (%d) not divisible by shards (%d)"
         cfg.intermediate shards)
  else begin
    let _, hchunk, ichunk = widths cfg ~shards in
    let l0 = t.decoder.(0) in
    let ablock = l0.attention.Attention.wq.Fc.block in
    let ublock = l0.ffn_up.Fc.block in
    let oblock = l0.ffn_down.Fc.block in
    if hchunk mod ablock <> 0 || hchunk mod oblock <> 0 then
      Error
        (Printf.sprintf
           "Llm.shard: hidden slice (%d) not a multiple of the GEMM block \
            (%d/%d)"
           hchunk ablock oblock)
    else if ichunk mod ublock <> 0 then
      Error
        (Printf.sprintf
           "Llm.shard: intermediate slice (%d) not a multiple of the GEMM \
            block (%d)"
           ichunk ublock)
    else Ok { t with decoder = Array.map (split cfg ~shards) t.decoder }
  end

(* Per-layer K/V store over capacity-backed [cap x hidden] buffers: rows
   [0, used) are valid, appends write in place, capacity doubles when
   exhausted. This keeps the decode hot loop free of the O(cache_len)
   reallocate-and-copy per layer per step that a grow-by-rebuild cache
   pays, and it makes caches recyclable: [reset_cache] rewinds [used]
   without touching the allocator, so a serving layer can hand the same
   buffers to session after session (lib/serve's KV pool). *)
type kv_entry = {
  mutable k : Tensor.t;
  mutable v : Tensor.t;
  mutable used : int;
  mutable cap : int;
}

(* Paged storage: a per-request block table over a shared arena
   (lib/kv), plus gather scratch that the attention kernels read from.
   The scratch grows geometrically and survives [reset_cache], so pooled
   paged caches stop allocating at steady state just like contiguous
   ones. One scratch pair serves all layers — layers run sequentially
   and each gathers before its attention. *)
type paged_store = {
  seq : Kv.Seq.t;
  mutable gk : Tensor.t;
  mutable gv : Tensor.t;
  mutable gcap : int;
}

(* Storage policy: [Contig] = one private capacity-doubling buffer pair
   per layer; [Paged] = fixed-size token blocks from a shared refcounted
   arena (block table per request, copy-on-write on shared tails). Both
   feed the same dense attention kernels — paged gathers valid rows into
   contiguous scratch first — so the two policies are bit-identical by
   construction (the correctness gate the kv tests pin down). *)
type kv_store = Contig of kv_entry array | Paged of paged_store

type kv_cache = { store : kv_store; mutable len : int; hidden : int }

let new_cache ?(cap = 16) t =
  let cap = max 1 cap in
  { store =
      Contig
        (Array.init t.cfg.layers (fun _ ->
             { k = Tensor.create Datatype.F32 [| cap; t.cfg.hidden |];
               v = Tensor.create Datatype.F32 [| cap; t.cfg.hidden |];
               used = 0; cap }));
    len = 0;
    hidden = t.cfg.hidden }

let new_paged_cache t mgr =
  if
    Kv.Block_manager.layers mgr <> t.cfg.layers
    || Kv.Block_manager.hidden mgr <> t.cfg.hidden
  then invalid_arg "Llm.new_paged_cache: arena shape does not match model";
  let gcap = max 1 (Kv.Block_manager.block_size mgr) in
  { store =
      Paged
        { seq = Kv.Seq.create mgr;
          gk = Tensor.create Datatype.F32 [| gcap; t.cfg.hidden |];
          gv = Tensor.create Datatype.F32 [| gcap; t.cfg.hidden |];
          gcap };
    len = 0;
    hidden = t.cfg.hidden }

let cache_len c = c.len

let cache_seq c =
  match c.store with Contig _ -> None | Paged p -> Some p.seq

let cache_capacity c =
  match c.store with
  | Contig entries -> if Array.length entries = 0 then 0 else entries.(0).cap
  | Paged p -> Kv.Seq.capacity p.seq

let reset_cache c =
  (match c.store with
  | Contig entries -> Array.iter (fun e -> e.used <- 0) entries
  | Paged p -> Kv.Seq.release_all p.seq);
  c.len <- 0

(* rewind the cache to its state at [len] valid rows, discarding any rows
   a partially-completed (failed) prefill/decode step appended. Contig
   buffers keep their capacity; a paged table frees exactly the tail
   blocks past row [len-1]. Either way a retried step re-appends into
   writable storage and recovery is bit-identical to a run that never
   failed. *)
let truncate_cache c len =
  assert (len >= 0);
  (match c.store with
  | Contig entries -> Array.iter (fun e -> e.used <- min e.used len) entries
  | Paged p -> if len < Kv.Seq.capacity p.seq then Kv.Seq.truncate p.seq ~len);
  c.len <- min c.len len

(* seed an empty paged cache with shared prefix blocks covering [len]
   prompt tokens (a prefix-trie hit); the suffix is then computed with
   [extend]. [len] may land mid-block — the first append COWs the shared
   tail. *)
let attach_prefix c ~blocks ~len =
  match c.store with
  | Contig _ -> invalid_arg "Llm.attach_prefix: contiguous cache"
  | Paged p ->
    assert (c.len = 0 && len >= 0);
    Kv.Seq.attach p.seq ~blocks;
    c.len <- len

(* copy the first [rows] rows of [src] into [dst] starting at [dst_row];
   both are contiguous [_ x hidden] F32 buffers *)
let copy_rows ~hidden ~rows (src : Tensor.t) (dst : Tensor.t) ~dst_row =
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src.Tensor.data 0 (rows * hidden))
    (Bigarray.Array1.sub dst.Tensor.data (dst_row * hidden) (rows * hidden))

let append_rows cache (e : kv_entry) ~k_new ~v_new =
  let hidden = cache.hidden in
  let n = (Tensor.dims k_new).(0) in
  if e.used + n > e.cap then begin
    let cap = max (e.used + n) (2 * e.cap) in
    let grow old =
      let t = Tensor.create Datatype.F32 [| cap; hidden |] in
      if e.used > 0 then copy_rows ~hidden ~rows:e.used old t ~dst_row:0;
      t
    in
    e.k <- grow e.k;
    e.v <- grow e.v;
    e.cap <- cap
  end;
  copy_rows ~hidden ~rows:n k_new e.k ~dst_row:e.used;
  copy_rows ~hidden ~rows:n v_new e.v ~dst_row:e.used;
  e.used <- e.used + n

(* ---- live-migration checkpoint/restore over the dense export ----

   [export_cache] snapshots the first [len] valid rows of every layer
   into an arena-independent dense export (a pure read — the cache stays
   the live copy); [import_cache] materializes such a snapshot into an
   EMPTY cache on any replica, either storage policy. Because both
   policies feed attention dense rows in token order, a resumed decode
   over an imported cache is bit-identical to the source continuing. *)
let export_cache c =
  match c.store with
  | Paged p -> Kv.Seq.export p.seq ~rows:c.len
  | Contig entries ->
    let layers = Array.length entries in
    let dense () =
      Array.init layers (fun _ ->
          Tensor.create Datatype.F32 [| max c.len 1; c.hidden |])
    in
    let xk = dense () and xv = dense () in
    Array.iteri
      (fun l e ->
        copy_rows ~hidden:c.hidden ~rows:c.len e.k xk.(l) ~dst_row:0;
        copy_rows ~hidden:c.hidden ~rows:c.len e.v xv.(l) ~dst_row:0)
      entries;
    { Kv.Block_manager.xrows = c.len; xlayers = layers; xhidden = c.hidden;
      xk; xv }

(* Restore a snapshot into an empty cache. Paged: [attach] re-shares the
   destination trie's blocks for the first [alen] (block-aligned) rows —
   bit-identical to the exported bytes since both replicas run the same
   deterministic engine over the same prefix — then the remainder is
   imported as private blocks; the freshly acquired blocks are adopted
   without an extra retain (ownership transfer). This is the commit
   point of a migration: on a [`Denied] arena the attached blocks are
   released and [Kv.Seq.Out_of_blocks] is raised with the destination
   left untouched, so the caller's export snapshot remains the one live
   copy. Contig: the dense rows are appended per layer. *)
let import_cache c ?attach:att (e : Kv.Block_manager.export) =
  assert (c.len = 0);
  if e.Kv.Block_manager.xhidden <> c.hidden then
    invalid_arg "Llm.import_cache: hidden mismatch";
  (match c.store with
  | Contig entries ->
    if e.Kv.Block_manager.xlayers <> Array.length entries then
      invalid_arg "Llm.import_cache: layer mismatch";
    if att <> None then invalid_arg "Llm.import_cache: attach on contiguous";
    if e.Kv.Block_manager.xrows > 0 then
      Array.iteri
        (fun l entry ->
          append_rows c entry
            ~k_new:(Tensor.sub_rows e.Kv.Block_manager.xk.(l)
                      e.Kv.Block_manager.xrows)
            ~v_new:(Tensor.sub_rows e.Kv.Block_manager.xv.(l)
                      e.Kv.Block_manager.xrows))
        entries
  | Paged p ->
    let from =
      match att with
      | None -> 0
      | Some (blocks, alen) ->
        assert (alen <= e.Kv.Block_manager.xrows);
        Kv.Seq.attach p.seq ~blocks;
        alen
    in
    (match Kv.Block_manager.import (Kv.Seq.manager p.seq) e ~from with
    | `Blocks fresh -> Kv.Seq.adopt p.seq ~blocks:fresh
    | `Denied ->
      Kv.Seq.release_all p.seq;
      raise Kv.Seq.Out_of_blocks
    | exception exn ->
      Kv.Seq.release_all p.seq;
      raise exn));
  c.len <- e.Kv.Block_manager.xrows

(* storage-agnostic append: write this layer's fresh K/V rows at token
   positions [cache.len, cache.len + n). Layer 0 reserves the block-table
   capacity for the whole forward pass (allocation is per token position,
   shared by all layers); later layers write into the same slots. *)
let append_layer cache ~layer ~k_new ~v_new =
  match cache.store with
  | Contig entries -> append_rows cache entries.(layer) ~k_new ~v_new
  | Paged p ->
    let n = (Tensor.dims k_new).(0) in
    if layer = 0 then Kv.Seq.ensure p.seq ~len:cache.len ~extra:n;
    Kv.Seq.append p.seq ~layer ~at:cache.len ~rows:n ~k_src:k_new ~v_src:v_new

(* storage-agnostic view of this layer's first [rows] K/V rows as
   contiguous [rows x hidden] tensors. Contig returns shared-storage
   views; paged gathers the block rows into the cache's scratch (grown
   geometrically, reused across layers and steps) — after which the
   dense attention path is byte-for-byte the same computation, which is
   what makes paged decode bit-identical to contiguous decode. *)
let layer_kv cache ~layer ~rows =
  match cache.store with
  | Contig entries ->
    let e = entries.(layer) in
    (Tensor.sub_rows e.k rows, Tensor.sub_rows e.v rows)
  | Paged p ->
    if p.gcap < rows then begin
      let cap = max rows (2 * p.gcap) in
      p.gk <- Tensor.create Datatype.F32 [| cap; cache.hidden |];
      p.gv <- Tensor.create Datatype.F32 [| cap; cache.hidden |];
      p.gcap <- cap
    end;
    Kv.Seq.gather p.seq ~layer ~rows ~k_dst:p.gk ~v_dst:p.gv;
    (Tensor.sub_rows p.gk rows, Tensor.sub_rows p.gv rows)

let layernorm gamma beta x =
  let y = Tensor.create Datatype.F32 (Tensor.dims x) in
  Blocks.layernorm_rows_nostats ~eps:1e-5 ~inp:(Tensor.view2d x)
    ~gamma:(Tensor.view2d gamma) ~beta:(Tensor.view2d beta)
    ~out:(Tensor.view2d y);
  y

let add_inplace a b =
  Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Full ~a:(Tensor.view2d a)
    ~b:(Tensor.view2d b) ~out:(Tensor.view2d a)

(* Pre-norm decoder block with a cache: x += Attn(LN1(x)); x += FFN(LN2(x)).
   Each stage is one [Team.run ~nthreads:shards] region in which every
   shard computes its part:
   A) q/k/v column slices; (join) cache append by the caller;
   B) owned heads' attention into a shared ctx, barrier, wo column slice
      over the full ctx;
   C) up/gate column slices (+SwiGLU on the slice), barrier, down column
      slice over the full intermediate.
   Every projection writes its slice's columns of the stage tensor in
   place. LN / residual / cache glue runs on the caller between regions. One
   shard runs inline, its kernels on the caller's [nthreads]; with more,
   parallelism lives at the shard level and the kernels run on one
   thread, since nested teams would fall back to spawn-per-call. *)
let decoder_block ?nthreads cache layer_idx (layer : layer) x =
  let n = (Tensor.dims x).(0) in
  let shards = Array.length layer.parts in
  let nthreads = if shards = 1 then nthreads else Some 1 in
  let stage f =
    Team.run ~nthreads:shards (fun ctx ->
        f layer.parts.(ctx.Team.tid) ctx.Team.barrier)
  in
  let buf (fc : Fc.t) =
    Tensor.create Datatype.F32 [| n; fc.Fc.out_features |]
  in
  let project s inp ~dst =
    Fc.forward_into ?nthreads s.fc inp ~out:dst ~col0:s.col0
  in
  let a = layer.attention in
  let normed = layernorm layer.ln1_gamma layer.ln1_beta x in
  let q = buf a.Attention.wq and k_new = buf a.Attention.wk in
  let v_new = buf a.Attention.wv in
  stage (fun p _ ->
      project p.q normed ~dst:q;
      project p.k normed ~dst:k_new;
      project p.v normed ~dst:v_new);
  (* cache append + gather run on the caller between regions — the block
     table (or contig buffer) is storage the shards only ever read *)
  append_layer cache ~layer:layer_idx ~k_new ~v_new;
  let k_all, v_all = layer_kv cache ~layer:layer_idx ~rows:(cache.len + n) in
  let ctx_t = buf a.Attention.wo and att = buf a.Attention.wo in
  stage (fun p barrier ->
      Attention.attend_range ~causal:true ~heads:a.Attention.heads ~h0:p.h0
        ~h1:p.h1 ~out:ctx_t q k_all v_all;
      barrier ();
      project p.o ctx_t ~dst:att);
  add_inplace att x;
  (* att now holds x + attention *)
  let normed2 = layernorm layer.ln2_gamma layer.ln2_beta att in
  let up = buf layer.ffn_up and down = buf layer.ffn_down in
  let gate = Option.map buf layer.ffn_gate in
  stage (fun p barrier ->
      project p.up normed2 ~dst:up;
      (match (p.gate, gate) with
      | Some g, Some gate ->
        (* SwiGLU on the slice: u := u * silu(gate) *)
        project g normed2 ~dst:gate;
        let cols t =
          Tensor.view t [| 0; g.col0 |] ~rows:n ~cols:g.fc.Fc.out_features
        in
        Blocks.swiglu ~gate:(cols gate) ~inp:(cols up) ~out:(cols up)
      | _ -> ());
      barrier ();
      project p.down up ~dst:down);
  add_inplace down att;
  down

let run_tokens ?nthreads t cache x =
  let out = ref x in
  Array.iteri
    (fun i layer -> out := decoder_block ?nthreads cache i layer !out)
    t.decoder;
  cache.len <- cache.len + (Tensor.dims x).(0);
  !out

let last_row x =
  let d = Tensor.dims x in
  Tensor.gather Datatype.F32 [| 1; d.(1) |] x ~off:((d.(0) - 1) * d.(1))
    ~strides:[| 0; 1 |]

(* batched extension over an already-filled cache: append [n] token rows
   and return all [n] output rows. Per-row outputs are bit-identical to
   feeding the same tokens one decode step at a time (the k-reduction
   order of every kernel is independent of the batch row count) — the
   property that makes prefix-hit suffix prefills and speculative
   verification exact, not approximate. *)
let extend ?nthreads t cache x = run_tokens ?nthreads t cache x

let prefill ?nthreads t cache x =
  assert (cache.len = 0);
  last_row (run_tokens ?nthreads t cache x)

let decode_step ?nthreads t cache x =
  assert ((Tensor.dims x).(0) = 1);
  run_tokens ?nthreads t cache x

let forward_full ?nthreads t x =
  let cache = new_cache t in
  run_tokens ?nthreads t cache x

(* a draft model sharing the target's first [layers] decoder layers (and
   weights and shards) — the proposer half of speculative decoding. No
   copy: slices reference the same layer records. *)
let draft t ~layers =
  let layers = max 1 (min layers t.cfg.layers) in
  { cfg = { t.cfg with layers; name = t.cfg.name ^ "-draft" };
    decoder = Array.sub t.decoder 0 layers }

(* deterministic per-token-id synthetic embedding: element (i, j) is the
   first draw of a generator seeded [ids.(i) * 7919 + j] *)
let embed t ids =
  let h = t.cfg.hidden in
  let x = Tensor.create Datatype.F32 [| Array.length ids; h |] in
  let buf = x.Tensor.data in
  for i = 0 to Array.length ids - 1 do
    let seed = ids.(i) * 7919 in
    for j = 0 to h - 1 do
      Bigarray.Array1.unsafe_set buf ((i * h) + j)
        (Prng.uniform_of_seed (seed + j) ~scale:0.5)
    done
  done;
  x

let layer_params (cfg : config) =
  (* 4 attention mats + 2 (or 3 gated) FFN mats *)
  let ffn_mats = if cfg.gated_ffn then 3.0 else 2.0 in
  (4.0 *. float_of_int cfg.hidden *. float_of_int cfg.hidden)
  +. (ffn_mats *. float_of_int cfg.hidden *. float_of_int cfg.intermediate)

let prefill_flops (cfg : config) ~n_in =
  let n = float_of_int n_in in
  let h = float_of_int cfg.hidden in
  float_of_int cfg.layers
  *. ((2.0 *. n *. layer_params cfg) (* dense contractions *)
     +. (2.0 *. 2.0 *. n *. n *. h) (* attention scores + context *))

let decode_flops (cfg : config) ~past =
  let h = float_of_int cfg.hidden in
  float_of_int cfg.layers
  *. ((2.0 *. layer_params cfg)
     +. (2.0 *. 2.0 *. float_of_int (past + 1) *. h))

let param_bytes (cfg : config) dtype =
  (float_of_int cfg.layers *. layer_params cfg
  +. (float_of_int cfg.vocab *. float_of_int cfg.hidden))
  *. float_of_int (Datatype.bytes dtype)
