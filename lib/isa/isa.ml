type t =
  | AVX2
  | AVX512F
  | AVX512_BF16
  | AMX_BF16
  | SVE256
  | BF16_MMLA
  | BF16_DOT

let to_string = function
  | AVX2 -> "avx2"
  | AVX512F -> "avx512f"
  | AVX512_BF16 -> "avx512-bf16"
  | AMX_BF16 -> "amx-bf16"
  | SVE256 -> "sve256"
  | BF16_MMLA -> "bf16-mmla"
  | BF16_DOT -> "bf16-dot"

let equal a b = a = b

let native_dtype = function
  | AVX2 | AVX512F | SVE256 -> Datatype.F32
  | AVX512_BF16 | AMX_BF16 | BF16_MMLA | BF16_DOT -> Datatype.BF16

(* AMX: systolic array fully utilized at accumulation length multiples of 32;
   SVE MMLA consumes 4-deep K packs; dot-product FMAs consume 2-deep. *)
let min_chain = function
  | AMX_BF16 -> 32
  | BF16_MMLA | BF16_DOT -> 4
  | AVX512_BF16 -> 2
  | AVX2 | AVX512F | SVE256 -> 1

(* FMA FLOPs per cycle per core, assuming 2 full-width FMA pipes on x86
   and 2 SVE pipes on Neoverse V1. AMX: TDPBF16PS = 16x16x32 MACs in 16
   cycles = 512 MACs = 1024 FLOPs/cycle, i.e. the paper's "up to 16x more
   peak flops than FP32 AVX512". *)
let flops_per_cycle = function
  | AVX2 -> 32.0
  | AVX512F -> 64.0
  | AVX512_BF16 -> 128.0
  | AMX_BF16 -> 1024.0
  | SVE256 -> 32.0
  | BF16_MMLA -> 128.0
  | BF16_DOT -> 64.0

let chain_efficiency isa ~chain =
  let c = min_chain isa in
  if chain <= 0 then 0.0 else Float.min 1.0 (float_of_int chain /. float_of_int c)

let has_bf16 isa = Datatype.equal (native_dtype isa) Datatype.BF16

let best_for dtype available =
  let candidates =
    List.filter
      (fun i ->
        match dtype with
        | Datatype.BF16 -> has_bf16 i
        | Datatype.F32 -> not (has_bf16 i))
      available
  in
  match candidates with
  | [] -> None
  | l ->
    Some
      (List.fold_left
         (fun best i ->
           if flops_per_cycle i > flops_per_cycle best then i else best)
         (List.hd l) l)
