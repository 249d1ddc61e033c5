let trace ?(flat_input = false) (cfg : Conv.config) spec ~nthreads =
  let loop = Threaded_loop.create (Conv.loop_specs cfg) spec in
  let p, _ = Conv.out_dims cfg in
  let hp = cfg.Conv.h + (2 * cfg.Conv.pad) in
  let wp = cfg.Conv.w + (2 * cfg.Conv.pad) in
  let cb = cfg.Conv.c / cfg.Conv.bc and kb = cfg.Conv.k / cfg.Conv.bk in
  let dt = Datatype.bytes cfg.Conv.dtype in
  let in_row_bytes = wp * cfg.Conv.bc * dt in
  (* a flat (NCHW, unblocked) input reads with large strides between
     channels: charge extra occupancy for the gathered rows *)
  let in_occupancy = if flat_input then in_row_bytes * 4 else in_row_bytes in
  let w_tap_bytes = cfg.Conv.bc * cfg.Conv.bk * dt in
  let out_row_bytes = cfg.Conv.w_step * cfg.Conv.bk * 4 in
  let body ind =
    let in_ = ind.(0) and ic = ind.(1) and ik = ind.(2) in
    let ih = ind.(3) and iw = ind.(4) and ir = ind.(5) and is = ind.(6) in
    ignore iw;
    let c_cnt = min cfg.Conv.c_step (cb - ic) in
    let h_cnt = min cfg.Conv.h_step (p - ih) in
    let accesses = ref [] in
    for h2 = 0 to h_cnt - 1 do
      let oh = ih + h2 in
      for dc = 0 to c_cnt - 1 do
        for dr = 0 to cfg.Conv.r_step - 1 do
          (* one padded input row per (channel block, filter row) *)
          let hin = (oh * cfg.Conv.stride) + ir + dr in
          accesses :=
            Perf_model.access ~tensor:0
              ~block:((((in_ * cb) + ic + dc) * hp) + hin)
              ~bytes:in_row_bytes ~occupancy:in_occupancy ()
            :: !accesses;
          for ds = 0 to cfg.Conv.s_step - 1 do
            accesses :=
              Perf_model.access ~tensor:1
                ~block:
                  ((((ik * cb) + ic + dc) * cfg.Conv.r * cfg.Conv.s)
                  + ((ir + dr) * cfg.Conv.s)
                  + is + ds)
                ~bytes:w_tap_bytes ()
              :: !accesses
          done
        done
      done;
      accesses :=
        Perf_model.access ~tensor:2
          ~block:((((in_ * kb) + ik) * p) + oh)
          ~bytes:out_row_bytes ()
        :: !accesses
    done;
    let taps = c_cnt * cfg.Conv.r_step * cfg.Conv.s_step in
    Perf_model.work
      ~flops:
        (2.0
        *. float_of_int (h_cnt * cfg.Conv.w_step * cfg.Conv.bk)
        *. float_of_int (cfg.Conv.bc * taps))
      ~chain:(cfg.Conv.bc * taps)
      ~accesses:!accesses
      ~store_bytes:(out_row_bytes * h_cnt) ()
  in
  Perf_model.trace_loop loop ~nthreads ~body

let score ?flat_input ?representative ~platform ~nthreads cfg spec =
  let traces = trace ?flat_input cfg spec ~nthreads in
  Perf_model.simulate ?representative ~platform ~dtype:cfg.Conv.dtype
    ~nthreads ~traces ()
