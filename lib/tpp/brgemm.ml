module View = Tensor.View

type b_layout = Flat | Vnni

type config = {
  m : int;
  n : int;
  k : int;
  dtype : Datatype.t;
  b_layout : b_layout;
  beta : float;
}

let make_config ?(dtype = Datatype.F32) ?(b_layout = Flat) ?(beta = 1.0) ~m ~n
    ~k () =
  assert (m > 0 && n > 0 && k > 0);
  assert (beta = 0.0 || beta = 1.0);
  (match b_layout with
  | Vnni -> assert (k mod Datatype.vnni_factor dtype = 0)
  | Flat -> ());
  { m; n; k; dtype; b_layout; beta }

let config_to_string c =
  Printf.sprintf "brgemm_%dx%dx%d_%s_%s_beta%g" c.m c.n c.k
    (Datatype.to_string c.dtype)
    (match c.b_layout with Flat -> "flat" | Vnni -> "vnni")
    c.beta

(* B's packing factor v: element (p, j) of a B block lives at row p/v,
   column j*v + p mod v, so flat B is the case v = 1. *)
let vnni_of cfg =
  match cfg.b_layout with Flat -> 1 | Vnni -> Datatype.vnni_factor cfg.dtype

(* Kernels are stateless (safe to share across threads from the dispatch
   cache). [geom] is the native kernel's view of the config,
   [| m; n; k; v; beta |]; [rlabel] is the kernel's flight-recorder
   label. Both are built once at compile so an exec call allocates
   nothing. *)
type kernel = { cfg : config; rlabel : int; geom : int array }

let compile cfg =
  { cfg;
    rlabel = Telemetry.Recorder.intern (config_to_string cfg);
    geom =
      [| cfg.m; cfg.n; cfg.k; vnni_of cfg; (if cfg.beta = 0.0 then 0 else 1) |]
  }

let config_of k = k.cfg

(* ---- the native microkernel (brgemm_stubs.c) ----
   [@@noalloc]: the stubs never allocate, raise or release the runtime
   lock. They read the views' fields directly and trust the caller to
   have bounds-checked every element they reach. *)

external native_stride :
  int array -> View.t -> View.t -> View.t -> int -> int -> int -> unit
  = "tpp_brgemm_stride_byte" "tpp_brgemm_stride"
[@@noalloc]

external native_offsets :
  int array -> View.t -> View.t -> View.t -> int array -> int array -> unit
  = "tpp_brgemm_offsets_byte" "tpp_brgemm_offsets"
[@@noalloc]

external native_list : int array -> (View.t * View.t) list -> View.t -> unit
  = "tpp_brgemm_list"
[@@noalloc]

(* empty batch: the contraction contributes nothing, so beta = 0 just
   means "zero the C block" *)
let zero_c ker c =
  if ker.cfg.beta = 0.0 then
    for i = 0 to ker.cfg.m - 1 do
      for j = 0 to ker.cfg.n - 1 do
        View.set c i j 0.0
      done
    done

(* ---- the OCaml reference ----
   The semantics the native kernel reproduces bit for bit: one FP64
   accumulator per output, loaded from C or zeroed; batches in order and
   p in order within a batch, skipping a(i,p) = +-0; one rounding at the
   store, with any NaN stored as [Float.nan]. *)

module Reference = struct
  let load_acc ker (c : View.t) =
    let { m; n; beta; _ } = ker.cfg in
    let acc = Array.make (m * n) 0.0 in
    if beta <> 0.0 then
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          acc.((i * n) + j) <- View.get c i j
        done
      done;
    acc

  let store_acc ker acc (c : View.t) =
    let { m; n; _ } = ker.cfg in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let x = acc.((i * n) + j) in
        View.set c i j (if Float.is_nan x then Float.nan else x)
      done
    done

  (* One batch step: acc += A x B with A at element offset [oa] from
     [a]'s origin and B at [ob] from [b]'s. *)
  let accumulate ker acc (a : View.t) (b : View.t) oa ob =
    let { m; n; k; _ } = ker.cfg in
    let v = vnni_of ker.cfg in
    let abase = a.View.off + oa and bbase = b.View.off + ob in
    for i = 0 to m - 1 do
      for p = 0 to k - 1 do
        let av =
          Bigarray.Array1.get a.View.data (abase + (i * a.View.ld) + p)
        in
        if av <> 0.0 then begin
          let brow = bbase + (p / v * b.View.ld) + (p mod v) in
          for j = 0 to n - 1 do
            acc.((i * n) + j) <-
              acc.((i * n) + j)
              +. (av *. Bigarray.Array1.get b.View.data (brow + (j * v)))
          done
        end
      done
    done

  let exec_stride ker ~a ~b ~c ~stride_a ~stride_b ~count =
    let acc = load_acc ker c in
    for i = 0 to count - 1 do
      accumulate ker acc a b (i * stride_a) (i * stride_b)
    done;
    store_acc ker acc c

  let exec_offsets ker ~a ~b ~c ~offs_a ~offs_b =
    let acc = load_acc ker c in
    Array.iteri (fun i oa -> accumulate ker acc a b oa offs_b.(i)) offs_a;
    store_acc ker acc c

  let exec_list ker ~ab ~c =
    match ab with
    | [] -> zero_c ker c
    | _ ->
      let acc = load_acc ker c in
      List.iter (fun (a, b) -> accumulate ker acc a b 0 0) ab;
      store_acc ker acc c
end

(* NaN-poison fault site: a fired [`Nan] corrupts c(0,0) after the store,
   modelling a defective kernel. Poison lands at flattened index 0 so
   even a [Sampled _] guard (which always probes index 0) detects it. *)
let poison_site = Fault.site "tpp.brgemm.store"

(* post-store guard, once per exec call; a raised Numeric_error still
   closes the kernel's recorder span *)
let finish ker (c : View.t) ~count =
  match
    (match Fault.fire poison_site with
    | `Nan -> View.set c 0 0 Float.nan
    | `None | `Deny -> ());
    if Tpp_check.mode () <> Tpp_check.Off then
      Tpp_check.finite_2d ~kernel:(config_to_string ker.cfg) c
  with
  | () ->
    Telemetry.Recorder.emit Telemetry.Recorder.Kernel_end ~label:ker.rlabel
      ~a:count ~b:0
  | exception e ->
    Telemetry.Recorder.emit Telemetry.Recorder.Kernel_end ~label:ker.rlabel
      ~a:count ~b:1;
    raise e

let check_views ker ~(a : View.t) ~(b : View.t) ~(c : View.t) =
  let { m; n; k; _ } = ker.cfg in
  let v = vnni_of ker.cfg in
  assert (a.View.rows >= m && a.View.cols >= k);
  assert (b.View.rows >= k / v && b.View.cols >= n * v);
  assert (c.View.rows >= m && c.View.cols >= n)

(* Every element a [rows x cols] block of [v] reaches, shifted by each
   batch offset in [lo, hi], must lie inside [v]'s buffer: the native
   kernel does not check, and an overrun would read or write foreign
   memory. *)
let check_extent what (v : View.t) ~rows ~cols ~lo ~hi =
  let span = (rows - 1) * v.View.ld in
  let first = v.View.off + lo + Int.min 0 span
  and last = v.View.off + hi + Int.max 0 span + cols - 1 in
  let len = Bigarray.Array1.dim v.View.data in
  if first < 0 || last >= len then
    invalid_arg
      (Printf.sprintf
         "Brgemm: %s reaches elements %d..%d of a %d-element buffer" what
         first last len)

let check_c ker c =
  check_extent "C" c ~rows:ker.cfg.m ~cols:ker.cfg.n ~lo:0 ~hi:0

(* A and B blocks shifted by batch offsets in [lo_a, hi_a], [lo_b, hi_b] *)
let check_ab ker ~a ~b ~lo_a ~hi_a ~lo_b ~hi_b =
  let { m; n; k; _ } = ker.cfg in
  let v = vnni_of ker.cfg in
  check_extent "A" a ~rows:m ~cols:k ~lo:lo_a ~hi:hi_a;
  check_extent "B" b ~rows:(k / v) ~cols:(n * v) ~lo:lo_b ~hi:hi_b

let emit_begin ker ~count =
  Telemetry.Recorder.emit Telemetry.Recorder.Kernel_begin ~label:ker.rlabel
    ~a:count ~b:0

let exec_stride ker ~a ~b ~c ~stride_a ~stride_b ~count =
  check_views ker ~a ~b ~c;
  if count < 0 then invalid_arg "Brgemm.exec_stride: negative count";
  check_c ker c;
  if count > 0 then begin
    let last_a = (count - 1) * stride_a and last_b = (count - 1) * stride_b in
    check_ab ker ~a ~b ~lo_a:(Int.min 0 last_a) ~hi_a:(Int.max 0 last_a)
      ~lo_b:(Int.min 0 last_b) ~hi_b:(Int.max 0 last_b)
  end;
  emit_begin ker ~count;
  native_stride ker.geom a b c count stride_a stride_b;
  finish ker c ~count

let exec_offsets ker ~a ~b ~c ~offs_a ~offs_b =
  let count = Array.length offs_a in
  if Array.length offs_b <> count then
    invalid_arg "Brgemm.exec_offsets: offs_a and offs_b differ in length";
  check_views ker ~a ~b ~c;
  check_c ker c;
  if count > 0 then begin
    let lo_a = ref offs_a.(0) and hi_a = ref offs_a.(0) in
    let lo_b = ref offs_b.(0) and hi_b = ref offs_b.(0) in
    for i = 1 to count - 1 do
      lo_a := Int.min !lo_a offs_a.(i);
      hi_a := Int.max !hi_a offs_a.(i);
      lo_b := Int.min !lo_b offs_b.(i);
      hi_b := Int.max !hi_b offs_b.(i)
    done;
    check_ab ker ~a ~b ~lo_a:!lo_a ~hi_a:!hi_a ~lo_b:!lo_b ~hi_b:!hi_b
  end;
  emit_begin ker ~count;
  native_offsets ker.geom a b c offs_a offs_b;
  finish ker c ~count

let exec_list ker ~ab ~c =
  match ab with
  | [] ->
    check_c ker c;
    zero_c ker c
  | (a0, b0) :: _ ->
    check_views ker ~a:a0 ~b:b0 ~c;
    check_c ker c;
    List.iter
      (fun (a, b) -> check_ab ker ~a ~b ~lo_a:0 ~hi_a:0 ~lo_b:0 ~hi_b:0)
      ab;
    let count = List.length ab in
    emit_begin ker ~count;
    native_list ker.geom ab c;
    finish ker c ~count

let exec ker ~a ~b ~c = exec_stride ker ~a ~b ~c ~stride_a:0 ~stride_b:0 ~count:1

let flops cfg ~count =
  2.0 *. float_of_int cfg.m *. float_of_int cfg.n *. float_of_int cfg.k
  *. float_of_int count
