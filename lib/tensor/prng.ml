type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let float t =
  (* 53 high bits -> [0,1) *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~scale = (float t *. 2.0 -. 1.0) *. scale

(* The 53 high bits of the draw [i + 1] steps past state [s0], as an
   int: they convert to a float exactly, without [Int64.to_float]'s C
   call. [@inline], as the fill's helpers are: a call would box. *)
let[@inline] draw_bits s0 i =
  let z = Int64.add s0 (Int64.mul (Int64.of_int (i + 1)) golden_gamma) in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 11)

let[@inline] put_uniform
    (buf : (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t)
    scale i u =
  Bigarray.Array1.unsafe_set buf i
    ((((u *. (1.0 /. 9007199254740992.0)) *. 2.0) -. 1.0) *. scale)

(* [uniform] into every element of [buf], in order. Draw [i] mixes the
   state [i + 1] steps on, so no boxed state is carried through the loop;
   the state is written back once. Four draws are made before any is
   stored: each int-to-float conversion waits on its register's last
   writer, and four registers make four chains instead of one. *)
let fill_uniform t ~scale
    (buf : (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t)
    =
  let s0 = t.state and n = Bigarray.Array1.dim buf in
  let i = ref 0 in
  while !i + 3 < n do
    let k = !i in
    let u0 = float_of_int (draw_bits s0 k)
    and u1 = float_of_int (draw_bits s0 (k + 1))
    and u2 = float_of_int (draw_bits s0 (k + 2))
    and u3 = float_of_int (draw_bits s0 (k + 3)) in
    put_uniform buf scale k u0;
    put_uniform buf scale (k + 1) u1;
    put_uniform buf scale (k + 2) u2;
    put_uniform buf scale (k + 3) u3;
    i := k + 4
  done;
  for k = !i to n - 1 do
    put_uniform buf scale k (float_of_int (draw_bits s0 k))
  done;
  t.state <- Int64.add s0 (Int64.mul (Int64.of_int n) golden_gamma)

let gaussian t =
  let u1 = max 1e-12 (float t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bernoulli t ~p = float t < p

let split t = { state = mix (next_int64 t) }
