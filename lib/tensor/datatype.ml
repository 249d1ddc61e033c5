type t = F32 | BF16

let bytes = function F32 -> 4 | BF16 -> 2

let to_string = function F32 -> "f32" | BF16 -> "bf16"

let equal a b = match a, b with F32, F32 | BF16, BF16 -> true | _ -> false

let[@inline] quantize dt x = match dt with F32 -> x | BF16 -> Bf16.round x

let vnni_factor = function F32 -> 1 | BF16 -> 2
