type layout = Blocked | Rows

type config = {
  m : int;
  n : int;
  k : int;
  bm : int;
  bn : int;
  bk : int;
  dtype : Datatype.t;
  vnni_b : bool;
  layout : layout;
  k_step : int;
  mk_blocks : int list;
  nk_blocks : int list;
  kk_blocks : int list;
}

let make_config ?(bm = 32) ?(bn = 32) ?(bk = 32) ?(dtype = Datatype.F32)
    ?(vnni_b = false) ?(layout = Blocked) ?k_step ?(mk_blocks = [])
    ?(nk_blocks = []) ?(kk_blocks = []) ~m ~n ~k () =
  let bm = min bm m and bn = min bn n and bk = min bk k in
  let k_step = Option.value k_step ~default:(k / bk) in
  if (layout = Blocked && m mod bm <> 0) || n mod bn <> 0 || k mod bk <> 0
  then invalid_arg "Gemm.make_config: block sizes must divide M, N, K";
  if vnni_b && bk mod Datatype.vnni_factor dtype <> 0 then
    invalid_arg "Gemm.make_config: bk must be divisible by the VNNI factor";
  { m; n; k; bm; bn; bk; dtype; vnni_b; layout; k_step; mk_blocks; nk_blocks;
    kk_blocks }

(* a row-major config's last M block may be short *)
let mb c = (c.m + c.bm - 1) / c.bm
let nb c = c.n / c.bn
let kb c = c.k / c.bk

let flops c = 2.0 *. float_of_int c.m *. float_of_int c.n *. float_of_int c.k

let loop_specs c =
  [
    Loop_spec.make ~bound:(kb c) ~step:c.k_step ~block_steps:c.kk_blocks ();
    Loop_spec.make ~bound:(mb c) ~step:1 ~block_steps:c.mk_blocks ();
    Loop_spec.make ~bound:(nb c) ~step:1 ~block_steps:c.nk_blocks ();
  ]

let default_spec = "BCa"

type t = {
  cfg : config;
  loop : Threaded_loop.t;
  ker_first : Brgemm.kernel;  (** beta = 0: zeroing fold of the first visit *)
  ker_acc : Brgemm.kernel;  (** beta = 1 *)
  tail_first : Brgemm.kernel;  (** the same pair for the last M block *)
  tail_acc : Brgemm.kernel;
}

let create cfg spec_string =
  let b_layout = if cfg.vnni_b then Brgemm.Vnni else Brgemm.Flat in
  let mk ~m beta =
    Dispatch.brgemm
      (Brgemm.make_config ~dtype:cfg.dtype ~b_layout ~beta ~m ~n:cfg.bn
         ~k:cfg.bk ())
  in
  let ker_first = mk ~m:cfg.bm 0.0 and ker_acc = mk ~m:cfg.bm 1.0 in
  let tail = cfg.m - ((mb cfg - 1) * cfg.bm) in
  let tail_first, tail_acc =
    if tail = cfg.bm then (ker_first, ker_acc)
    else (mk ~m:tail 0.0, mk ~m:tail 1.0)
  in
  {
    cfg;
    loop = Threaded_loop.create (loop_specs cfg) spec_string;
    ker_first;
    ker_acc;
    tail_first;
    tail_acc;
  }

(* ---- spec resolver hook ----
   An installed resolver may substitute the instantiation of a GEMM at
   nest-compile time: it returns a replacement (config, spec) — same
   m/n/k/block/dtype, possibly different blocking lists — or None to keep
   the caller's choice. The online tuner (lib/tuner Spec_cache) installs
   one so serve-path layers pick up tuned specs without any layer code
   change; the tuner itself always calls [create] directly, so resolution
   cannot recurse. The hook is an atomic ref: install/clear are safe from
   any domain. *)

let spec_resolver :
    (config -> string -> (config * string) option) option Atomic.t =
  Atomic.make None

let set_spec_resolver f = Atomic.set spec_resolver (Some f)
let clear_spec_resolver () = Atomic.set spec_resolver None

let create_resolved cfg spec_string =
  match Atomic.get spec_resolver with
  | None -> create cfg spec_string
  | Some resolve -> (
    match resolve cfg spec_string with
    | Some (cfg', spec') -> create cfg' spec'
    | None -> create cfg spec_string)

let config t = t.cfg
let spec t = Threaded_loop.spec_string t.loop

(* ---- layout helpers ----
   Each is one strided copy: the destination's dims in order, and where
   each of its indices steps in the logical row-major source. *)

let pack_a c a =
  assert (Tensor.dims a = [| c.m; c.k |]);
  match c.layout with
  | Rows -> Tensor.cast a c.dtype
  | Blocked ->
    (* [Mb][Kb][bm][bk] *)
    Tensor.gather c.dtype
      [| mb c; kb c; c.bm; c.bk |]
      a ~off:0
      ~strides:[| c.bm * c.k; c.bk; c.k; 1 |]

let pack_b c b =
  assert (Tensor.dims b = [| c.k; c.n |]);
  if c.vnni_b then begin
    let v = Datatype.vnni_factor c.dtype in
    (* [Nb][Kb][bk/v][bn][v], filled a row of B's block at a time *)
    let p = Tensor.create c.dtype [| nb c; kb c; c.bk / v; c.bn; v |] in
    Tensor.strided_copy c.dtype
      [| nb c; kb c; c.bk / v; v; c.bn |]
      ~src:b.Tensor.data ~src_off:0
      ~src_strides:[| c.bn; c.bk * c.n; v * c.n; c.n; 1 |]
      ~dst:p.Tensor.data ~dst_off:0
      ~dst_strides:[| kb c * c.bk * c.bn; c.bk * c.bn; c.bn * v; 1; v |];
    p
  end
  else
    (* [Nb][Kb][bk][bn] *)
    Tensor.gather c.dtype
      [| nb c; kb c; c.bk; c.bn |]
      b ~off:0
      ~strides:[| c.bn; c.bk * c.n; c.n; 1 |]

let pack_c c t =
  assert (Tensor.dims t = [| c.m; c.n |]);
  match c.layout with
  | Rows -> Tensor.cast t Datatype.F32
  | Blocked ->
    (* [Nb][Mb][bm][bn] *)
    Tensor.gather Datatype.F32
      [| nb c; mb c; c.bm; c.bn |]
      t ~off:0
      ~strides:[| c.bn; c.bm * c.n; c.n; 1 |]

let unpack_c c t =
  match c.layout with
  | Rows -> t
  | Blocked ->
    (* [M; N] as [Mb][bm][Nb][bn] *)
    Tensor.reshape
      (Tensor.gather Datatype.F32
         [| mb c; c.bm; nb c; c.bn |]
         t ~off:0
         ~strides:[| c.bm * c.bn; c.bn; c.m * c.bn; 1 |])
      [| c.m; c.n |]

let alloc_c ?(dtype = Datatype.F32) c =
  match c.layout with
  | Rows -> Tensor.create dtype [| c.m; c.n |]
  | Blocked -> Tensor.create dtype [| nb c; mb c; c.bm; c.bn |]

(* ---- execution (the paper's Listing 1 body) ---- *)

let block_elems_b c =
  (* elements per [ik] step of B, both layouts *)
  c.bk * c.bn

(* logical data moved once per run: A + B in dtype, C in f32 *)
let traffic_bytes c =
  let dt = Datatype.bytes c.dtype in
  float_of_int (((c.m * c.k) + (c.k * c.n)) * dt)
  +. float_of_int (c.m * c.n * 4)

let instance_of t =
  let c = t.cfg in
  Printf.sprintf "%dx%dx%d %s %s" c.m c.n c.k (Datatype.to_string c.dtype)
    (Threaded_loop.spec_string t.loop)

let run ?nthreads ?post ?(col0 = 0) t ~a ~b ~c =
  let cfg = t.cfg in
  let v = Datatype.vnni_factor cfg.dtype in
  let stride_b = block_elems_b cfg in
  let b_row = cfg.k * cfg.bn in
  (* where block (im, ik) of A starts, A's row length and the distance
     from one of its K blocks to the next; where block (im, in) of C
     starts and C's row length *)
  let a_off, lda, stride_a, c_off, ldc =
    match cfg.layout with
    | Blocked ->
      assert (col0 = 0);
      let stride_a = cfg.bm * cfg.bk in
      ( (fun im ik -> (im * cfg.k * cfg.bm) + (ik * stride_a)),
        cfg.bk,
        stride_a,
        (fun im in_ -> (in_ * cfg.m * cfg.bn) + (im * cfg.bm * cfg.bn)),
        cfg.bn )
    | Rows ->
      let dc = c.Tensor.dims in
      assert (
        Tensor.rank a = 2 && Tensor.dim a 0 = cfg.m && Tensor.dim a 1 = cfg.k);
      assert (Array.length dc = 2 && dc.(0) = cfg.m && col0 + cfg.n <= dc.(1));
      ( (fun im ik -> (im * cfg.bm * cfg.k) + (ik * cfg.bk)),
        cfg.k,
        cfg.bk,
        (fun im in_ -> (im * cfg.bm * dc.(1)) + col0 + (in_ * cfg.bn)),
        dc.(1) )
  in
  let last = mb cfg - 1 in
  let body ind =
    let ik = ind.(0) and im = ind.(1) and in_ = ind.(2) in
    let brcount = min cfg.k_step (kb cfg - ik) in
    let rows = if im = last then cfg.m - (im * cfg.bm) else cfg.bm in
    let av =
      Tensor.view_flat a ~off:(a_off im ik) ~rows ~cols:cfg.bk ~ld:lda
    in
    let bv =
      if cfg.vnni_b then
        Tensor.view_flat b
          ~off:((in_ * b_row) + (ik * stride_b))
          ~rows:(cfg.bk / v) ~cols:(cfg.bn * v) ~ld:(cfg.bn * v)
      else
        Tensor.view_flat b
          ~off:((in_ * b_row) + (ik * stride_b))
          ~rows:cfg.bk ~cols:cfg.bn ~ld:cfg.bn
    in
    let cv =
      Tensor.view_flat c ~off:(c_off im in_) ~rows ~cols:cfg.bn ~ld:ldc
    in
    let ker =
      match (ik = 0, im = last) with
      | true, false -> t.ker_first
      | false, false -> t.ker_acc
      | true, true -> t.tail_first
      | false, true -> t.tail_acc
    in
    Brgemm.exec_stride ker ~a:av ~b:bv ~c:cv ~stride_a ~stride_b ~count:brcount;
    (* fused post-op on the finished C block (bias, activation, ...) *)
    match post with
    | Some f when ik + brcount >= kb cfg -> f ~im ~in_ ~c_block:cv
    | _ -> ()
  in
  if not (Telemetry.Registry.enabled ()) then
    Threaded_loop.run ?nthreads t.loop body
  else begin
    let t0 = Telemetry.Clock.now_ns () in
    Threaded_loop.run ?nthreads t.loop body;
    Telemetry.Registry.record_kernel ~kind:"gemm" ~instance:(instance_of t)
      ~flops:(flops cfg) ~bytes:(traffic_bytes cfg)
      ~seconds:(Telemetry.Clock.elapsed_s ~since:t0)
  end

let run_logical ?nthreads t ~a ~b =
  let cfg = t.cfg in
  let ap = pack_a cfg a in
  let bp = pack_b cfg b in
  let cp = alloc_c cfg in
  run ?nthreads t ~a:ap ~b:bp ~c:cp;
  unpack_c cfg cp
