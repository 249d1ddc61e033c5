(** Deterministic splitmix64 pseudo-random number generator.

    All randomized data in the repository (synthetic weights, sparse
    patterns, test inputs) flows through this generator so that every
    experiment and test is exactly reproducible from a seed. *)

type t

(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** Next raw 64-bit value. *)
val next_int64 : t -> int64

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform float in [-scale, scale). *)
val uniform : t -> scale:float -> float

(** [fill_uniform t ~scale buf] stores [Array1.dim buf] draws of
    {!uniform} into [buf], in index order: the same values, rounded to
    FP32, and the same state after, as that many [uniform] calls. *)
val fill_uniform :
  t ->
  scale:float ->
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  unit

(** Standard normal via Box-Muller. *)
val gaussian : t -> float

(** Uniform int in [0, bound). [bound] must be positive. *)
val int : t -> int -> int

(** Bernoulli draw with probability [p] of [true]. *)
val bernoulli : t -> p:float -> bool

(** Independent generator derived from this one (for parallel streams). *)
val split : t -> t
