type config = {
  m : int;
  n : int;
  k : int;
  bm : int;
  bk : int;
  bn : int;
  dtype : Datatype.t;
}

let make_config ?bn ?(dtype = Datatype.F32) ~m ~n ~k ~bm ~bk () =
  if m mod bm <> 0 || k mod bk <> 0 then
    invalid_arg "Spmm_kernel.make_config: bm/bk must divide M/K";
  let bn = min n (Option.value bn ~default:n) in
  if n mod bn <> 0 then
    invalid_arg "Spmm_kernel.make_config: bn must divide N";
  { m; n; k; bm; bk; bn; dtype }

let dense_flops c = 2.0 *. float_of_int c.m *. float_of_int c.n *. float_of_int c.k

let effective_flops c ~a =
  dense_flops c *. (1.0 -. Bcsc.sparsity a)

let loop_specs c =
  [
    Loop_spec.make ~bound:(c.m / c.bm) ~step:1 ();
    Loop_spec.make ~bound:(c.n / c.bn) ~step:1 ();
  ]

let default_spec = "AB @ schedule(dynamic,1)"

type t = {
  cfg : config;
  loop : Threaded_loop.t;
  kernel : Spmm.kernel;
}

let create cfg spec_string =
  let kernel =
    Dispatch.spmm
      (Spmm.make_config ~dtype:cfg.dtype ~beta:0.0 ~n:cfg.bn ~bm:cfg.bm
         ~bk:cfg.bk ())
  in
  { cfg; loop = Threaded_loop.create (loop_specs cfg) spec_string; kernel }

let config t = t.cfg

let pack_b cfg b =
  assert (Tensor.dims b = [| cfg.k; cfg.n |]);
  Vnni.pack ~dtype:cfg.dtype b

(* logical data moved once per run: the stored (dense) fraction of A plus
   dense B in dtype, C in f32 *)
let traffic_bytes c ~a =
  let dt = Datatype.bytes c.dtype in
  (float_of_int (c.m * c.k * dt) *. (1.0 -. Bcsc.sparsity a))
  +. float_of_int ((c.k * c.n * dt) + (c.m * c.n * 4))

let instance_of t ~a =
  let c = t.cfg in
  Printf.sprintf "%dx%dx%d %.0f%%sp %s %s" c.m c.n c.k
    (100.0 *. Bcsc.sparsity a)
    (Datatype.to_string c.dtype)
    (Threaded_loop.spec_string t.loop)

let run ?nthreads t ~a ~b ~c =
  let cfg = t.cfg in
  assert (a.Bcsc.rows = cfg.m && a.Bcsc.cols = cfg.k);
  assert (Tensor.dims c = [| cfg.m; cfg.n |]);
  let v = Datatype.vnni_factor cfg.dtype in
  let bv =
    Tensor.view_flat b ~off:0 ~rows:(cfg.k / v) ~cols:(cfg.n * v)
      ~ld:(cfg.n * v)
  in
  let body ind =
    let im = ind.(0) and in_ = ind.(1) in
    let cv =
      Tensor.view_flat c
        ~off:((im * cfg.bm * cfg.n) + (in_ * cfg.bn))
        ~rows:cfg.bm ~cols:cfg.bn ~ld:cfg.n
    in
    Spmm.exec t.kernel ~a ~block_row:im ~b:bv ~col:(in_ * cfg.bn) ~c:cv
  in
  if not (Telemetry.Registry.enabled ()) then
    Threaded_loop.run ?nthreads t.loop body
  else begin
    let t0 = Telemetry.Clock.now_ns () in
    Threaded_loop.run ?nthreads t.loop body;
    Telemetry.Registry.record_kernel ~kind:"spmm" ~instance:(instance_of t ~a)
      ~flops:(effective_flops cfg ~a) ~bytes:(traffic_bytes cfg ~a)
      ~seconds:(Telemetry.Clock.elapsed_s ~since:t0)
  end

let run_logical ?nthreads t ~a ~b =
  let cfg = t.cfg in
  let bp = pack_b cfg b in
  let c = Tensor.create Datatype.F32 [| cfg.m; cfg.n |] in
  run ?nthreads t ~a ~b:bp ~c;
  c
