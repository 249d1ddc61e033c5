(** ResNet-50 (§IV-C): topology table, the standalone convolution shapes of
    Fig. 7, and an executable residual CNN built from the PARLOOPER
    convolution kernel with fused batchnorm + ReLU post-ops, global
    average pooling and a final FC layer.

    The full 224x224 ResNet-50 shapes feed the benchmark harness; the
    executable network is exercised at reduced sizes in tests/examples. *)

(** One convolution layer shape: [(c, k, h, w, r, s, stride, pad)] with
    input spatial dims [h x w]. *)
type conv_shape = {
  layer_id : int;
  c : int;
  k : int;
  h : int;
  w : int;
  r : int;
  s : int;
  stride : int;
  pad : int;
  repeats : int;  (** times this shape occurs in ResNet-50 *)
}

(** The 20 unique convolution shapes of ResNet-50 (Fig. 7's x-axis),
    224x224 input. *)
val conv_shapes : conv_shape list

(** FLOPs of one instance of a shape at minibatch [n]. *)
val conv_shape_flops : conv_shape -> n:int -> float

(** Total conv FLOPs of one ResNet-50 forward at minibatch [n]. *)
val total_conv_flops : n:int -> float

(** FLOPs of one training step (fwd + ~2x bwd) at minibatch [n]. *)
val train_step_flops : n:int -> float

(** Executable residual CNN. *)
type t

(** Input image channels. *)
val channels : t -> int

(** Classifier width. *)
val classes : t -> int

val dtype : t -> Datatype.t

(** [create ~rng ~channels ~blocks ()] — a small ResNet-style network:
    stem conv, [blocks] residual bottleneck-ish stages on [channels] maps,
    global average pooling and an FC classifier. All channel counts must
    be divisible by 8. *)
val create :
  rng:Prng.t ->
  ?dtype:Datatype.t ->
  ?spec:string ->
  ?classes:int ->
  channels:int ->
  blocks:int ->
  unit ->
  t

(** Forward on logical [N; 3; H; W] images; returns [N; classes] logits. *)
val forward : ?nthreads:int -> t -> Tensor.t -> Tensor.t

(** Naive reference forward (tests). *)
val reference_forward : t -> Tensor.t -> Tensor.t
