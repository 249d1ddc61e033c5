(** Block-sparse x dense GEMM via PARLOOPER + BCSC-SpMM TPP — the paper's
    Listing 5.

    C[M x N] = A x B where A [M x K] is block-sparse (BCSC, [bm x bk]
    blocks) and B/C are dense. B is consumed VNNI-packed ([K/v][N][v]);
    C is a plain row-major [M x N] tensor. Two logical loops are declared
    (a: M block rows, b: N column panels of width bn); the K reduction over
    the stored blocks of a row happens inside the TPP.

    By default a panel is all of N, so each block row is one BRGEMM call
    that pays the call's fixed cost once (the native kernel cuts a call's
    columns into L1-sized groups itself). A C element's bits depend only
    on its block row's stored blocks, so neither the panel width nor the
    thread that runs the row changes them. *)

type config = {
  m : int;
  n : int;
  k : int;
  bm : int;
  bk : int;  (** sparsity block size (must match the BCSC matrix) *)
  bn : int;  (** N panel width *)
  dtype : Datatype.t;
}

(** [bn] defaults to [n]; a larger [bn] is clamped to [n]. *)
val make_config :
  ?bn:int -> ?dtype:Datatype.t -> m:int -> n:int -> k:int -> bm:int -> bk:int ->
  unit -> config

(** Effective FLOPs given the sparse A actually used (2*M*N*K * density). *)
val effective_flops : config -> a:Bcsc.t -> float

(** Dense-equivalent FLOPs 2*M*N*K. *)
val dense_flops : config -> float

val loop_specs : config -> Loop_spec.t list

(** Block rows and column panels collapsed-parallel, handed out one at a
    time as threads free up ([schedule(dynamic,1)]): a block row's cost is
    its number of stored blocks, which varies from row to row, so a fixed
    split of the rows leaves one thread idle while the other finishes. *)
val default_spec : string

type t

val create : config -> string -> t
val config : t -> config

(** VNNI-pack a logical [K x N] dense B. *)
val pack_b : config -> Tensor.t -> Tensor.t

(** [run t ~a ~b ~c] — [b] VNNI-packed, [c] a zero-or-overwritten
    [M x N] tensor. *)
val run : ?nthreads:int -> t -> a:Bcsc.t -> b:Tensor.t -> c:Tensor.t -> unit

(** Pack + run against logical dense B; returns dense C. *)
val run_logical : ?nthreads:int -> t -> a:Bcsc.t -> b:Tensor.t -> Tensor.t
