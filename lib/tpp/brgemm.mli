(** Batch-Reduce GEMM (BRGEMM) — the paper's main tensor-contraction TPP.

    BRGEMM materializes [C = beta*C + sum_{i=0}^{count-1} A_i x B_i] over
    [bm x bk] blocks of A and [bk x bn] blocks of B, reducing into one
    [bm x bn] block of C. Three addressing variants are supported, as in
    LIBXSMM: stride-based (A_i/B_i at fixed element strides from a base),
    offset-based (explicit per-i offsets; used to fold convolution R/S
    loops), and address-based (arbitrary block list).

    Inputs may be FP32 or BF16 (values already on the BF16 grid); the B
    operand may be in flat [bk x bn] layout or packed VNNI layout
    [bk/v][bn][v].

    {b Accumulator contract.} Each output element has one FP64
    accumulator, loaded from C when [beta = 1] and [+0.0] when
    [beta = 0]. It accumulates batch by batch, with p in order within each
    batch, as separate double products and sums, skipping [a(i,p) = +-0]
    (so [0 * inf] makes no NaN and [-0 + +0] flips no sign). It is
    rounded once, at the store: to FP32, then to BF16 (round to nearest
    even) for a BF16 C; a NaN is stored as [Float.nan], because which of
    two NaN operands a sum propagates depends on instruction operand
    order. The product of two FP32 values is exact in FP64, so only the
    sums round, each output in a fixed order.

    The kernels are native code (a C microkernel, vectorised across N
    only, with the instruction set picked from CPUID at load time), and
    {!Reference} is the OCaml statement of the same contract: the two
    agree bit for bit, which is what keeps results independent of the
    host's SIMD width. *)

type b_layout = Flat | Vnni

type config = {
  m : int;
  n : int;
  k : int;  (** block extents bm, bn, bk *)
  dtype : Datatype.t;  (** input (A/B) datatype *)
  b_layout : b_layout;
  beta : float;  (** 0.0 (overwrite) or 1.0 (accumulate) *)
}

val make_config :
  ?dtype:Datatype.t ->
  ?b_layout:b_layout ->
  ?beta:float ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  config

val config_to_string : config -> string

(** A compiled kernel: given base views of A, B, C plus the batch
    description, performs the contraction. Obtain via {!Dispatch.brgemm}
    (cached) or {!compile} (uncached). *)
type kernel

(** Build a kernel for a configuration (the "JIT" step). *)
val compile : config -> kernel

val config_of : kernel -> config

(** Every exec form raises [Invalid_argument] before touching memory if
    any element the call would reach — through [count x stride],
    the offsets, or the list's views — lies outside its buffer. *)

(** Stride variant: [A_i] starts [i*stride_a] elements after [a]'s origin
    (same leading dimension), likewise for B.
    [a]: [m x k] view, [b]: [k x n] flat view (or the VNNI-packed
    equivalent: [k/v] rows of [n*v] elements), [c]: [m x n] view. *)
val exec_stride :
  kernel ->
  a:Tensor.View.t ->
  b:Tensor.View.t ->
  c:Tensor.View.t ->
  stride_a:int ->
  stride_b:int ->
  count:int ->
  unit

(** Offset variant: per-batch element offsets from the A and B origins.
    Arrays must have equal length = batch count. *)
val exec_offsets :
  kernel ->
  a:Tensor.View.t ->
  b:Tensor.View.t ->
  c:Tensor.View.t ->
  offs_a:int array ->
  offs_b:int array ->
  unit

(** Address variant: explicit (A_i, B_i) views. *)
val exec_list :
  kernel -> ab:(Tensor.View.t * Tensor.View.t) list -> c:Tensor.View.t -> unit

(** Plain GEMM block (count = 1). *)
val exec :
  kernel -> a:Tensor.View.t -> b:Tensor.View.t -> c:Tensor.View.t -> unit

(** The OCaml reference implementation of the exec forms: same results,
    bit for bit, without the extent checks, telemetry, fault site or guard.
    Kept for tests to compare the native kernel against. *)
module Reference : sig
  val exec_stride :
    kernel ->
    a:Tensor.View.t ->
    b:Tensor.View.t ->
    c:Tensor.View.t ->
    stride_a:int ->
    stride_b:int ->
    count:int ->
    unit

  val exec_offsets :
    kernel ->
    a:Tensor.View.t ->
    b:Tensor.View.t ->
    c:Tensor.View.t ->
    offs_a:int array ->
    offs_b:int array ->
    unit

  val exec_list :
    kernel -> ab:(Tensor.View.t * Tensor.View.t) list -> c:Tensor.View.t -> unit
end

(** FLOPs of one kernel invocation with [count] batches: 2*m*n*k*count. *)
val flops : config -> count:int -> float
