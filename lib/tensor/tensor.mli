(** Dense N-dimensional tensors over a flat FP32 buffer.

    Tensors are row-major and contiguous. Each tensor carries a {!Datatype.t}
    tag; for [BF16] tensors every store rounds the value onto the BF16 grid
    (see {!Bf16}), matching hardware semantics where data at rest is BF16 and
    arithmetic accumulates in FP32.

    The TPP backend operates on {!View.t}: a strided 2D window into a
    tensor's buffer (offset, rows, cols, leading dimension), the exact
    sub-tensor granularity of the paper's TPPs. *)

type buffer =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  data : buffer;
  dims : int array;
  strides : int array;  (** row-major element strides *)
  dtype : Datatype.t;
}

module View : sig
  (** A 2D window: element [(i, j)] lives at [off + i*ld + j]. *)
  type view = {
    data : buffer;
    off : int;
    rows : int;
    cols : int;
    ld : int;
    dtype : Datatype.t;
  }

  type t = view

  val get : t -> int -> int -> float

  (** Stores quantize to the view's dtype. *)
  val set : t -> int -> int -> float -> unit

  (** Sub-window at row/col offset within the view. *)
  val sub : t -> row:int -> col:int -> rows:int -> cols:int -> t
end

(** [create dtype dims] allocates a zero-filled tensor. *)
val create : Datatype.t -> int array -> t

(** [init dtype dims f] fills element-wise from multi-index. *)
val init : Datatype.t -> int array -> (int array -> float) -> t

(** Total number of elements. *)
val numel : t -> int

(** Number of dimensions. *)
val rank : t -> int

(** A fresh copy of the dimensions. *)
val dims : t -> int array

(** [dim t i] is dimension [i], without copying the dimensions. *)
val dim : t -> int -> int
val dtype : t -> Datatype.t

(** Flat (linear, row-major) element access. Stores quantize to dtype. *)
val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit

(** Multi-index element access; index length must equal [rank]. *)
val get : t -> int array -> float
val set : t -> int array -> float -> unit

(** Linear offset of a multi-index. *)
val offset : t -> int array -> int

val fill : t -> float -> unit

(** Fill with uniform values in [-scale, scale) from [rng]: element [i]
    holds the [i]-th {!Prng.uniform} draw, rounded to the dtype, and [rng]
    ends where that many draws leave it. *)
val fill_random : t -> Prng.t -> scale:float -> unit

(** [random dtype dims rng ~scale] is a fresh tensor filled by
    {!fill_random}. *)
val random : Datatype.t -> int array -> Prng.t -> scale:float -> t

(** Deep copy (same dtype and contents). *)
val copy : t -> t

(** Same buffer reinterpreted with new dims; [numel] must be preserved. *)
val reshape : t -> int array -> t

(** [sub_rows t n] — the first [n] rows of the leading dimension as a
    tensor {e sharing storage} with [t] (no copy; writes are visible in
    both). The contiguous-prefix counterpart of {!View.sub}, used by
    capacity-backed buffers (e.g. the LLM KV cache) to expose only their
    valid prefix. *)
val sub_rows : t -> int -> t

(** [row_views t] for a rank-2 [t]: [row_views t r] is row [r] as a
    [1 x cols] tensor sharing [t]'s storage. The views of one call share
    their shape arrays. *)
val row_views : t -> int -> t

(** Convert to another datatype (rounding values as needed). *)
val cast : t -> Datatype.t -> t

(** The [cols x rows] transpose of a rank-2 tensor, in its dtype. *)
val transpose : t -> t

(** {2 Strided copy}

    The one primitive behind every pack, unpack, cast and transpose.
    [strided_copy dtype dims ~src ~src_off ~src_strides ~dst ~dst_off
    ~dst_strides] stores, for every multi-index [idx] of [dims], the
    element at [src_off + Σ idx.(d) * src_strides.(d)] of [src] at
    [dst_off + Σ idx.(d) * dst_strides.(d)] of [dst]. Strides may be zero
    or negative. The copy runs in rows along the last dimension (after
    dropping 1s and merging dimensions both sides cross as one run), so
    the caller picks the order that reads or writes contiguously.

    - Rounding: a value is stored as {!set_flat} on a [dtype] tensor
      stores it. [F32] keeps it; [BF16] rounds it to nearest even, bit
      for bit as {!Bf16.round} does.
    - NaN: a NaN is stored as it is, sign and payload kept; a signalling
      NaN is stored quiet, because each value passes through a float.
    - Extent: the lowest and highest element each side reaches are
      checked against its buffer once per call, before anything is
      stored; [Invalid_argument] names the side, the reach and the length.
      A [dims] holding a 0 copies nothing and checks nothing.
    - Overlap: [src] and [dst] may be the same elements, index for index
      (an in-place rounding); any other overlap gives unspecified values.

    [dims] and both stride arrays must have one rank of at least 1. *)
val strided_copy :
  Datatype.t ->
  int array ->
  src:buffer ->
  src_off:int ->
  src_strides:int array ->
  dst:buffer ->
  dst_off:int ->
  dst_strides:int array ->
  unit

(** [gather dtype dims t ~off ~strides] is a fresh contiguous [dtype]
    tensor of [dims] whose element [idx] is read from [t]'s buffer at
    [off + Σ idx.(d) * strides.(d)]: {!strided_copy} into a new tensor. *)
val gather : Datatype.t -> int array -> t -> off:int -> strides:int array -> t

(** Element-wise maximum absolute difference. Dims must match. *)
val max_abs_diff : t -> t -> float

(** [approx_equal ?tol a b] — max |a-b| <= tol * (1 + max|reference|). *)
val approx_equal : ?tol:float -> t -> t -> bool

(** All elements as a list (tests only; small tensors). *)
val to_list : t -> float list

(** [view t idx ~rows ~cols] — 2D window whose top-left corner is
    multi-index [idx] (length = [rank t]), spanning [rows] of the
    second-to-last dimension and [cols] of the last dimension. *)
val view : t -> int array -> rows:int -> cols:int -> View.t

(** Whole rank-2 tensor as a view. *)
val view2d : t -> View.t

(** Arbitrary window by flat element offset — for kernels addressing
    blocked tensors by strides (BRGEMM stride variant). *)
val view_flat : t -> off:int -> rows:int -> cols:int -> ld:int -> View.t
