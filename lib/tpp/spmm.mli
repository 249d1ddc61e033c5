(** Block-Sparse x Dense matrix multiply TPP (§III-C).

    Computes one [bm x bn] block of C = A x B where A is block-sparse in
    BCSC format (block size [bm x bk]) and B, C are dense. B is consumed in
    VNNI-packed layout (the paper pre-formats B in VNNI to deploy
    low-precision FMAs; for FP32 the packing factor is 1 = flat).

    One block row of A is one offsets-form {!Brgemm} call: batch i
    multiplies the row's i-th stored block (in block-column order) with
    the [bk x bn] block of B in that block column, so SpMM runs on the
    native BRGEMM microkernel and keeps its accumulator contract. *)

type config = {
  n : int;  (** bn: C-block columns *)
  bm : int;
  bk : int;  (** A block size, from the BCSC matrix *)
  dtype : Datatype.t;
  beta : float;
}

val make_config :
  ?dtype:Datatype.t -> ?beta:float -> n:int -> bm:int -> bk:int -> unit -> config

val config_to_string : config -> string

type kernel

val compile : config -> kernel
val config_of : kernel -> config

(** [exec k ~a ~block_row ~b ~col ~c]:
    C_block = beta * C_block + (block row [block_row] of A) x
    B[:, col .. col+n-1].
    [b] is a view of the whole VNNI-packed B ([K/v] rows x [N*v] cols);
    [c] is the [bm x n] output block view. Raises [Invalid_argument] if
    A's block size is not the kernel's, or if a stored block would reach
    past the end of [b]'s buffer (e.g. [col] too large). *)
val exec :
  kernel ->
  a:Bcsc.t ->
  block_row:int ->
  b:Tensor.View.t ->
  col:int ->
  c:Tensor.View.t ->
  unit

(** Effective FLOPs (counting only stored blocks) for one block row. *)
val effective_flops : config -> a:Bcsc.t -> block_row:int -> float
