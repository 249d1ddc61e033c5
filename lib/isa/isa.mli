(** Instruction-set architectures modeled by the TPP backend.

    The real LIBXSMM backend JITs different instruction sequences per ISA.
    Here each ISA is a descriptor consumed by (a) the kernel dispatcher,
    which picks microkernel strategies (VNNI layouts, tile blocking), and
    (b) the performance model, which needs vector widths and accumulation
    -chain constraints — e.g. the AMX systolic array reaches peak only with
    accumulation-length multiples of 32, which is what caps 4x4 Block-SpMM
    at 4/32 = 12.5% of BF16 peak in Fig. 8. *)

type t =
  | AVX2            (** 256-bit x86, FP32 only (ADL client parts) *)
  | AVX512F         (** 512-bit x86 FP32 *)
  | AVX512_BF16     (** x86 BF16 dot-product FMAs (Zen4) *)
  | AMX_BF16        (** Intel Advanced Matrix eXtensions tiles (SPR) *)
  | SVE256          (** Arm SVE 256-bit FP32 (Graviton 3) *)
  | BF16_MMLA       (** Arm SVE BF16 matrix-multiply-accumulate *)
  | BF16_DOT        (** Arm BF16 dot product *)

val to_string : t -> string
val equal : t -> t -> bool

(** Datatype the ISA's contraction path computes with. *)
val native_dtype : t -> Datatype.t

(** Minimum accumulation-chain length (elements of K) needed to reach the
    ISA's contraction peak. Efficiency for a chain of length [l] is
    [min 1 (l / chain)] — the mechanism behind the paper's Fig. 8 analysis. *)
val min_chain : t -> int

(** Peak fused multiply-add FLOPs per cycle per core of a full-width
    implementation of this ISA (2 ops per MAC). *)
val flops_per_cycle : t -> float

(** Efficiency factor in (0, 1] of a contraction whose accumulation chain
    (inner-product extent per microkernel invocation) is [chain]. *)
val chain_efficiency : t -> chain:int -> float

(** Does this ISA accelerate BF16 contractions natively? *)
val has_bf16 : t -> bool

(** Best contraction ISA for [dtype] among [available], by flops/cycle.
    Returns [None] if no listed ISA can compute that precision (a BF16
    request falls back to an FP32 ISA in the dispatcher, mirroring
    reference-path execution). *)
val best_for : Datatype.t -> t list -> t option
