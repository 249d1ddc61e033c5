type config = {
  n : int;
  c : int;
  k : int;
  h : int;
  w : int;
  r : int;
  s : int;
  stride : int;
  pad : int;
  bc : int;
  bk : int;
  c_step : int;
  h_step : int;
  w_step : int;
  r_step : int;
  s_step : int;
  dtype : Datatype.t;
}

let make_config ?(stride = 1) ?(pad = 0) ?(bc = 32) ?(bk = 32) ?(c_step = 1)
    ?(h_step = 1) ?(w_step = 0) ?(r_step = 0) ?(s_step = 0)
    ?(dtype = Datatype.F32) ~n ~c ~k ~h ~w ~r ~s () =
  let bc = min bc c and bk = min bk k in
  if c mod bc <> 0 || k mod bk <> 0 then
    invalid_arg "Conv.make_config: bc/bk must divide C/K";
  let p = ((h + (2 * pad) - r) / stride) + 1 in
  let q = ((w + (2 * pad) - s) / stride) + 1 in
  if p <= 0 || q <= 0 then invalid_arg "Conv.make_config: empty output";
  let w_step = if w_step = 0 then q else w_step in
  let r_step = if r_step = 0 then r else r_step in
  let s_step = if s_step = 0 then s else s_step in
  if q mod w_step <> 0 then
    invalid_arg "Conv.make_config: w_step must divide Q";
  if r mod r_step <> 0 || s mod s_step <> 0 then
    invalid_arg "Conv.make_config: r_step/s_step must divide R/S";
  { n; c; k; h; w; r; s; stride; pad; bc; bk; c_step; h_step; w_step;
    r_step; s_step; dtype }

let out_dims cfg =
  let p = ((cfg.h + (2 * cfg.pad) - cfg.r) / cfg.stride) + 1 in
  let q = ((cfg.w + (2 * cfg.pad) - cfg.s) / cfg.stride) + 1 in
  (p, q)

let flops cfg =
  let p, q = out_dims cfg in
  2.0 *. float_of_int cfg.n *. float_of_int cfg.k *. float_of_int p
  *. float_of_int q *. float_of_int cfg.c *. float_of_int cfg.r
  *. float_of_int cfg.s

let cb cfg = cfg.c / cfg.bc
let kb cfg = cfg.k / cfg.bk

let loop_specs cfg =
  let p, q = out_dims cfg in
  [
    Loop_spec.make ~bound:cfg.n ~step:1 ();
    Loop_spec.make ~bound:(cb cfg) ~step:cfg.c_step ();
    Loop_spec.make ~bound:(kb cfg) ~step:1 ();
    Loop_spec.make ~bound:p ~step:cfg.h_step ();
    Loop_spec.make ~bound:q ~step:cfg.w_step ();
    Loop_spec.make ~bound:cfg.r ~step:cfg.r_step ();
    Loop_spec.make ~bound:cfg.s ~step:cfg.s_step ();
  ]

let default_spec = "Acdebfg"

type t = {
  cfg : config;
  loop : Threaded_loop.t;
  ker_first : Brgemm.kernel;
  ker_acc : Brgemm.kernel;
}

let create cfg spec_string =
  let mk beta =
    Dispatch.brgemm
      (Brgemm.make_config ~dtype:cfg.dtype ~beta ~m:cfg.w_step ~n:cfg.bk
         ~k:cfg.bc ())
  in
  {
    cfg;
    loop = Threaded_loop.create (loop_specs cfg) spec_string;
    ker_first = mk 0.0;
    ker_acc = mk 1.0;
  }

let config t = t.cfg

let padded_dims cfg = (cfg.h + (2 * cfg.pad), cfg.w + (2 * cfg.pad))

(* [N][Cb][H + 2 pad][W + 2 pad][bc]: the input goes into the interior
   of the zeroed padded tensor, a row of W pixels of one channel at a
   time *)
let pack_input cfg inp =
  assert (Tensor.dims inp = [| cfg.n; cfg.c; cfg.h; cfg.w |]);
  let hp, wp = padded_dims cfg in
  let p = Tensor.create cfg.dtype [| cfg.n; cb cfg; hp; wp; cfg.bc |] in
  let plane = cfg.h * cfg.w and i_cblk = hp * wp * cfg.bc in
  Tensor.strided_copy cfg.dtype
    [| cfg.n; cb cfg; cfg.h; cfg.bc; cfg.w |]
    ~src:inp.Tensor.data ~src_off:0
    ~src_strides:[| cfg.c * plane; cfg.bc * plane; cfg.w; plane; 1 |]
    ~dst:p.Tensor.data
    ~dst_off:((cfg.pad * wp * cfg.bc) + (cfg.pad * cfg.bc))
    ~dst_strides:[| cb cfg * i_cblk; i_cblk; wp * cfg.bc; 1; cfg.bc |];
  p

(* [Kb][Cb][R][S][bc][bk] *)
let pack_weights cfg w =
  assert (Tensor.dims w = [| cfg.k; cfg.c; cfg.r; cfg.s |]);
  let tap = cfg.r * cfg.s in
  Tensor.gather cfg.dtype
    [| kb cfg; cb cfg; cfg.r; cfg.s; cfg.bc; cfg.bk |]
    w ~off:0
    ~strides:[| cfg.bk * cfg.c * tap; cfg.bc * tap; cfg.s; 1; tap; cfg.c * tap |]

let alloc_output ?(dtype = Datatype.F32) cfg =
  let p, q = out_dims cfg in
  Tensor.create dtype [| cfg.n; kb cfg; p; q; cfg.bk |]

(* [N; K; P; Q] from [N][Kb][P][Q][bk], one output channel at a time *)
let unpack_output cfg o =
  let p, q = out_dims cfg in
  let pq = p * q in
  Tensor.reshape
    (Tensor.gather Datatype.F32
       [| cfg.n; kb cfg; cfg.bk; p; q |]
       o ~off:0
       ~strides:[| kb cfg * pq * cfg.bk; pq * cfg.bk; 1; q * cfg.bk; cfg.bk |])
    [| cfg.n; cfg.k; p; q |]

(* logical data moved once per run: input + weights in dtype, output f32 *)
let traffic_bytes cfg =
  let p, q = out_dims cfg in
  let dt = Datatype.bytes cfg.dtype in
  float_of_int
    (((cfg.n * cfg.c * cfg.h * cfg.w) + (cfg.k * cfg.c * cfg.r * cfg.s)) * dt)
  +. float_of_int (cfg.n * cfg.k * p * q * 4)

let instance_of t =
  let c = t.cfg in
  Printf.sprintf "n%d %dx%d %dx%dx%dx%d %s %s" c.n c.h c.w c.c c.k c.r c.s
    (Datatype.to_string c.dtype)
    (Threaded_loop.spec_string t.loop)

let run ?nthreads ?post t ~input ~weights ~output =
  let cfg = t.cfg in
  let p, q = out_dims cfg in
  let hp, wp = padded_dims cfg in
  (* element strides in the blocked layouts *)
  let i_cblk = hp * wp * cfg.bc in
  (* I: one Cb block *)
  let i_row = wp * cfg.bc in
  (* I: one padded input row *)
  let i_img = cb cfg * i_cblk in
  let w_cblk = cfg.r * cfg.s * cfg.bc * cfg.bk in
  let w_tap = cfg.bc * cfg.bk in
  let w_kblk = cb cfg * w_cblk in
  let o_row = q * cfg.bk in
  let o_kblk = p * o_row in
  let o_img = kb cfg * o_kblk in
  let use_stride = cfg.r = 1 && cfg.s = 1 && cfg.r_step = 1 && cfg.s_step = 1 in
  let body ind =
    let in_ = ind.(0) and ic = ind.(1) and ik = ind.(2) in
    let ih = ind.(3) and iw = ind.(4) and ir = ind.(5) and is = ind.(6) in
    let c_cnt = min cfg.c_step (cb cfg - ic) in
    let h_cnt = min cfg.h_step (p - ih) in
    let first = ic = 0 && ir = 0 && is = 0 in
    for h2 = 0 to h_cnt - 1 do
      let oh = ih + h2 in
      let ov =
        Tensor.view_flat output
          ~off:((in_ * o_img) + (ik * o_kblk) + (oh * o_row) + (iw * cfg.bk))
          ~rows:cfg.w_step ~cols:cfg.bk ~ld:cfg.bk
      in
      (* input pixel anchor for this output row/col and tap (ir, is),
         in padded coordinates *)
      let hin = (oh * cfg.stride) + ir in
      let win = (iw * cfg.stride) + is in
      let av =
        Tensor.view_flat input
          ~off:((in_ * i_img) + (ic * i_cblk) + (hin * i_row) + (win * cfg.bc))
          ~rows:cfg.w_step ~cols:cfg.bc ~ld:(cfg.stride * cfg.bc)
      in
      let bv =
        Tensor.view_flat weights
          ~off:
            ((ik * w_kblk) + (ic * w_cblk)
            + (((ir * cfg.s) + is) * w_tap))
          ~rows:cfg.bc ~cols:cfg.bk ~ld:cfg.bk
      in
      let ker = if first then t.ker_first else t.ker_acc in
      if use_stride then
        Brgemm.exec_stride ker ~a:av ~b:bv ~c:ov ~stride_a:i_cblk
          ~stride_b:w_cblk ~count:c_cnt
      else begin
        let nbatch = c_cnt * cfg.r_step * cfg.s_step in
        let offs_a = Array.make nbatch 0 and offs_b = Array.make nbatch 0 in
        let idx = ref 0 in
        for dc = 0 to c_cnt - 1 do
          for dr = 0 to cfg.r_step - 1 do
            for ds = 0 to cfg.s_step - 1 do
              offs_a.(!idx) <-
                (dc * i_cblk) + (dr * i_row) + (ds * cfg.bc);
              offs_b.(!idx) <-
                (dc * w_cblk) + ((((dr * cfg.s) + ds)) * w_tap);
              incr idx
            done
          done
        done;
        Brgemm.exec_offsets ker ~a:av ~b:bv ~c:ov ~offs_a ~offs_b
      end;
      (* fused post-op once the block's reduction is complete *)
      match post with
      | Some f
        when ic + c_cnt >= cb cfg
             && ir + cfg.r_step >= cfg.r
             && is + cfg.s_step >= cfg.s ->
        f ~n:in_ ~kb:ik ~p:oh ~q:iw ~block:ov
      | _ -> ()
    done
  in
  if not (Telemetry.Registry.enabled ()) then
    Threaded_loop.run ?nthreads t.loop body
  else begin
    let t0 = Telemetry.Clock.now_ns () in
    Threaded_loop.run ?nthreads t.loop body;
    Telemetry.Registry.record_kernel ~kind:"conv" ~instance:(instance_of t)
      ~flops:(flops cfg) ~bytes:(traffic_bytes cfg)
      ~seconds:(Telemetry.Clock.elapsed_s ~since:t0)
  end

let run_logical ?nthreads t ~input ~weights =
  let cfg = t.cfg in
  let ip = pack_input cfg input in
  let wp = pack_weights cfg weights in
  let o = alloc_output cfg in
  run ?nthreads t ~input:ip ~weights:wp ~output:o;
  unpack_output cfg o
