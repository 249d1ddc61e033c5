(** Blocked GEMM via PARLOOPER + BRGEMM TPP — the paper's Listing 1.

    Logical tensors are [A: M x K], [B: K x N], [C: M x N] with
    [C += A x B]. B is always blocked, as [Nb][Kb][bk][bn] (or its VNNI
    packing for BF16). A and C follow the config's {!layout}:
    - [Blocked]: A as [Mb][Kb][bm][bk], C as [Nb][Mb][bm][bn];
    - [Rows]: A and C row-major, as [M x K] and [M x N], read and
      written in place; M need not be a multiple of [bm], and the last
      M block then has [M mod bm] rows. C may be a column window of a
      wider tensor (see {!run}). This is how a layer runs its
      activations: token rows on M, with no packing or transposing.

    Three logical loops are declared — a: Kb (step [k_step], the
    batch-reduce count), b: Mb, c: Nb — and the instantiation is entirely
    governed by the [loop_spec_string]. Each visit of a C block issues one
    stride-based BRGEMM over [k_step] K blocks, the first visit with
    beta = 0. At the default [k_step], all of Kb, a C block has one visit:
    one call reduces its whole K strip with the accumulators in FP64, as
    in Listing 1. The code is identical for all precisions. *)

type layout = Blocked | Rows

type config = {
  m : int;
  n : int;
  k : int;
  bm : int;
  bn : int;
  bk : int;
  dtype : Datatype.t;
  vnni_b : bool;  (** store B VNNI-packed (required path for BF16 HW) *)
  layout : layout;  (** storage of A and C *)
  k_step : int;  (** K-loop step in block units = batch-reduce count *)
  mk_blocks : int list;  (** blocking steps for the M loop (block units) *)
  nk_blocks : int list;  (** blocking steps for the N loop *)
  kk_blocks : int list;  (** blocking steps for the K loop *)
}

(** [make_config ~m ~n ~k ()] with defaults: 32x32x32 blocks (clamped to
    the problem), FP32, flat B, [Blocked] layout, k_step = k / bk (every
    K block in one BRGEMM call), no extra blocking steps. A smaller
    [k_step] rounds C to FP32 after every call, so it gives different
    bits. The blocks must divide their dimensions, except [bm] in a
    [Rows] layout. *)
val make_config :
  ?bm:int ->
  ?bn:int ->
  ?bk:int ->
  ?dtype:Datatype.t ->
  ?vnni_b:bool ->
  ?layout:layout ->
  ?k_step:int ->
  ?mk_blocks:int list ->
  ?nk_blocks:int list ->
  ?kk_blocks:int list ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  config

(** M / bm, rounded up. *)
val mb : config -> int

val nb : config -> int
val kb : config -> int

(** FLOPs of one full GEMM: 2*M*N*K. *)
val flops : config -> float

(** Logical bytes moved once per run (A + B in dtype, C in f32); used for
    telemetry arithmetic-intensity reporting. *)
val traffic_bytes : config -> float

(** The logical loop declarations (a = K blocks, b = M blocks,
    c = N blocks) fed to PARLOOPER. *)
val loop_specs : config -> Loop_spec.t list

(** A safe default instantiation: M and N blocks collapsed-parallel
    outermost, K innermost ("BCa"). *)
val default_spec : string

type t

(** [create cfg spec_string] — compiles (or fetches from the JIT cache)
    the loop nest and dispatches the BRGEMM kernels. *)
val create : config -> string -> t

val config : t -> config
val spec : t -> string

(** {2 Spec resolver hook}

    An installed resolver may substitute a GEMM's instantiation at
    nest-compile time: given the caller's config and spec it returns a
    replacement [(config, spec)] — same shape/blocks/dtype, possibly
    different blocking lists — or [None] to keep the caller's choice.
    The online tuner installs one so serve-path layers pick up tuned
    specs with zero layer-code changes. Install/clear are atomic and
    safe from any domain. *)

val set_spec_resolver : (config -> string -> (config * string) option) -> unit
val clear_spec_resolver : unit -> unit

(** [create] routed through the resolver when one is installed;
    otherwise identical to [create]. Tuning code must use [create] (the
    resolver is never consulted there), serve-path layers use
    [create_resolved]. *)
val create_resolved : config -> string -> t

(** Layout helpers between logical rank-2 tensors and the config's
    storage. In a [Rows] layout, [pack_a] and [pack_c] copy (rounding A
    to the config's dtype) and [unpack_c] returns its argument. *)
val pack_a : config -> Tensor.t -> Tensor.t
val pack_b : config -> Tensor.t -> Tensor.t
val pack_c : config -> Tensor.t -> Tensor.t
val unpack_c : config -> Tensor.t -> Tensor.t

(** Fresh zeroed blocked C ([dtype] defaults to FP32 accumulation; pass
    the input dtype to emulate low-precision activation stores). *)
val alloc_c : ?dtype:Datatype.t -> config -> Tensor.t

(** [run ?nthreads ?post t ~a ~b ~c] with tensors in the config's
    storage; C is overwritten (each block is zeroed on its first
    K-visit). [post], if given, is invoked on each C block right after
    its last K-visit — the fusion point for bias/activation TPPs
    (requires a spec in which, for a fixed (im, in), all K iterations
    run on one thread in order, which holds whenever the K loop is not
    parallelized). In a [Rows] layout, [c] is an [M x W] tensor with
    [W >= col0 + N], and the product lands in its columns
    [\[col0, col0 + N)]; [col0] must be 0 for [Blocked]. *)
val run :
  ?nthreads:int ->
  ?post:(im:int -> in_:int -> c_block:Tensor.View.t -> unit) ->
  ?col0:int ->
  t ->
  a:Tensor.t ->
  b:Tensor.t ->
  c:Tensor.t ->
  unit

(** Convenience: packs logical rank-2 A and B, runs, unpacks C. *)
val run_logical : ?nthreads:int -> t -> a:Tensor.t -> b:Tensor.t -> Tensor.t
