(** Shared utilities for the figure/table harnesses: the PARLOOPER side of
    every experiment (candidate loop instantiations scored through the
    §II-E model), platform aggregation helpers, and output formatting. *)

(** Modeled GFLOPS of the PARLOOPER/TPP GEMM: best of a small per-shape
    candidate set of loop instantiations (the auto-tuned configuration). *)
val parlooper_gemm :
  platform:Platform.t ->
  nthreads:int ->
  dtype:Datatype.t ->
  m:int ->
  n:int ->
  k:int ->
  float

(** Modeled GFLOPS of the PARLOOPER/TPP convolution across the whole chip:
    per-core simulation of one image, scaled by throughput-proportional
    core aggregation (dynamic scheduling handles hybrid cores). *)
val parlooper_conv :
  platform:Platform.t -> dtype:Datatype.t -> Resnet.conv_shape -> float

(** Vendor-library convolution counterpart ({!Onednn.conv_gflops}) for a
    shape record. *)
val onednn_conv :
  platform:Platform.t -> dtype:Datatype.t -> Resnet.conv_shape -> float

(** Dense-contraction efficiency (0..1) of the tuned PARLOOPER GEMM at a
    representative large shape (memoized). *)
val parlooper_efficiency : platform:Platform.t -> Datatype.t -> float

(** Efficiency with only [cores] active (e.g. the 8-core latency setup of
    Fig. 10). *)
val parlooper_efficiency_at :
  platform:Platform.t -> cores:int -> Datatype.t -> float

(** Sustained cross-core LLC bandwidth (GB/s) used for activation
    hand-off between cascading layers (Fig. 3's limiting factor on SPR). *)
val llc_xcore_gbs : Platform.t -> float

(** Sum of per-group core throughput scales relative to the fastest core:
    e.g. ADL = 8 + 8 * (E-core speed / P-core speed). *)
val effective_cores : Platform.t -> Datatype.t -> float

val geomean : float list -> float

(** Formatting helper: a titled section. *)
val section : string -> unit
