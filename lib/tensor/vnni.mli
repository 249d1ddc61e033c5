(** VNNI layout transformations.

    Low-precision contraction hardware (AVX512-VNNI/BF16, AMX, SVE MMLA)
    consumes the B operand with [v] consecutive elements of the K dimension
    packed together: a logical [K x N] matrix is stored as [K/v][N][v].
    For BF16, v = 2; for FP32, v = 1 (identity). *)

(** [pack ?dtype b] reformats a rank-2 [K x N] tensor into VNNI layout
    [K/v; N; v] where [v = Datatype.vnni_factor dtype], rounding each
    value to [dtype] on the way ([dtype] defaults to [b]'s). K must be
    divisible by [v]. *)
val pack : ?dtype:Datatype.t -> Tensor.t -> Tensor.t

(** Inverse of {!pack}: rank-3 [K/v; N; v] back to [K; N]. *)
val unpack : Tensor.t -> Tensor.t

(** Element of a VNNI-packed tensor by logical (k, n) coordinates, given the
    packing factor. *)
val get : Tensor.t -> v:int -> k:int -> n:int -> float
