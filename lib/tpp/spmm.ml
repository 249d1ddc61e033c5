module View = Tensor.View

type config = {
  n : int;
  bm : int;
  bk : int;
  dtype : Datatype.t;
  beta : float;
}

let make_config ?(dtype = Datatype.F32) ?(beta = 1.0) ~n ~bm ~bk () =
  assert (n > 0 && bm > 0 && bk > 0);
  assert (beta = 0.0 || beta = 1.0);
  { n; bm; bk; dtype; beta }

let config_to_string c =
  Printf.sprintf "bcsc_spmm_n%d_%dx%d_%s_beta%g" c.n c.bm c.bk
    (Datatype.to_string c.dtype)
    c.beta

type kernel = { cfg : config; brgemm : Brgemm.kernel }

let compile cfg =
  let b_layout =
    if Datatype.vnni_factor cfg.dtype = 1 then Brgemm.Flat else Brgemm.Vnni
  in
  { cfg;
    brgemm =
      Brgemm.compile
        (Brgemm.make_config ~dtype:cfg.dtype ~b_layout ~beta:cfg.beta
           ~m:cfg.bm ~n:cfg.n ~k:cfg.bk ()) }

let config_of k = k.cfg

(* A's origin is stored block 0 and B's is row 0, column [col] of the
   VNNI-packed B; the offsets pick each stored block and its B rows. *)
let exec ker ~a ~block_row ~b ~col ~c =
  let { n; bm; bk; dtype; _ } = ker.cfg in
  if a.Bcsc.bm <> bm || a.Bcsc.bk <> bk then
    invalid_arg "Spmm.exec: A's block size differs from the kernel's";
  let v = Datatype.vnni_factor dtype in
  let blocks = a.Bcsc.row_index.(block_row) in
  Brgemm.exec_offsets ker.brgemm ~a:(Bcsc.block_view a 0)
    ~b:{ b with View.off = b.View.off + (col * v); rows = bk / v; cols = n * v }
    ~c
    ~offs_a:(Array.map (fun (_, slot) -> slot * bm * bk) blocks)
    ~offs_b:(Array.map (fun (jb, _) -> jb * bk / v * b.View.ld) blocks)

let effective_flops cfg ~a ~block_row =
  let nblocks = Array.length (Bcsc.row_blocks a block_row) in
  2.0 *. float_of_int cfg.bm *. float_of_int cfg.bk *. float_of_int cfg.n
  *. float_of_int nblocks
