let section title =
  Printf.printf "\n== %s ==\n%!" title

let geomean = function
  | [] -> 0.0
  | xs ->
    exp (List.fold_left (fun a x -> a +. log (Float.max 1e-12 x)) 0.0 xs
         /. float_of_int (List.length xs))

(* modeling granularity: big blocks keep traces small without changing
   who-wins comparisons *)
let model_block dim = if dim >= 1024 then 128 else if dim >= 256 then 64 else 32

let gemm_candidates (cfg : Gemm.config) =
  let mb = Gemm.mb cfg and nb = Gemm.nb cfg in
  let base = [ ("BCa", cfg) ] in
  let dyn = [ ("BCa @ schedule(dynamic,1)", cfg) ] in
  let blocked =
    if mb mod 4 = 0 && nb mod 4 = 0 then
      [
        ( "BCabc",
          { cfg with Gemm.mk_blocks = [ mb / 4 ]; nk_blocks = [ nb / 4 ] } );
        ( "aBCbc",
          { cfg with Gemm.mk_blocks = [ mb / 4 ]; nk_blocks = [ nb / 4 ] } );
      ]
    else []
  in
  base @ dyn @ blocked

let parlooper_gemm ~platform ~nthreads ~dtype ~m ~n ~k =
  let bmax = min (model_block m) (min (model_block n) (model_block k)) in
  let block_sizes =
    (* small problems benefit from fine-grained tasking *)
    let fine = if m <= 512 || n <= 512 then [ min 16 bmax ] else [] in
    List.sort_uniq compare ([ bmax; min 32 bmax; min 64 bmax ] @ fine)
  in
  let rep = min nthreads 4 in
  List.concat_map
    (fun b ->
      let cfg =
        Gemm.make_config ~bm:(min b m) ~bn:(min b n) ~bk:(min b k) ~dtype
          ~k_step:(min 4 (k / min b k)) ~m ~n ~k ()
      in
      gemm_candidates cfg)
    block_sizes
  |> List.map (fun (spec, cfg) ->
         (Gemm_trace.score ~representative:rep ~platform ~nthreads cfg spec)
           .Perf_model.gflops)
  |> List.fold_left Float.max 0.0

let eff_memo : (string * string * int, float) Hashtbl.t = Hashtbl.create 16

(* efficiency at a given active core count (defaults to the whole chip) *)
let parlooper_efficiency_at ~platform ~cores dtype =
  let key =
    (platform.Platform.name, Datatype.to_string dtype, cores)
  in
  match Hashtbl.find_opt eff_memo key with
  | Some e -> e
  | None ->
    let g =
      parlooper_gemm ~platform ~nthreads:cores ~dtype ~m:2048 ~n:2048 ~k:2048
    in
    let peak = Platform.peak_gflops ~cores platform dtype in
    let e = if peak <= 0.0 then 0.0 else g /. peak in
    Hashtbl.replace eff_memo key e;
    e

let parlooper_efficiency ~platform dtype =
  parlooper_efficiency_at ~platform ~cores:(Platform.cores platform) dtype

let effective_cores (p : Platform.t) dtype =
  let per_group gi (g : Platform.core_group) =
    ignore gi;
    match Isa.best_for dtype g.Platform.isas with
    | Some i ->
      Isa.flops_per_cycle i *. g.Platform.freq_ghz *. g.Platform.fma_scale
    | None -> (
      match Isa.best_for Datatype.F32 g.Platform.isas with
      | Some i ->
        Isa.flops_per_cycle i *. g.Platform.freq_ghz *. g.Platform.fma_scale
      | None -> 0.0)
  in
  let rates = Array.to_list (Array.mapi per_group p.Platform.core_groups) in
  let fastest = List.fold_left Float.max 0.0 rates in
  if fastest <= 0.0 then 0.0
  else
    List.fold_left2
      (fun acc (g : Platform.core_group) rate ->
        acc +. (float_of_int g.Platform.count *. (rate /. fastest)))
      0.0
      (Array.to_list p.Platform.core_groups)
      rates

let conv_config_of_shape ~dtype (sh : Resnet.conv_shape) ~n =
  let bc = min 32 sh.Resnet.c and bk = min 32 sh.Resnet.k in
  Conv.make_config ~stride:sh.Resnet.stride ~pad:sh.Resnet.pad ~bc ~bk
    ~c_step:(min 4 (sh.Resnet.c / bc))
    ~dtype ~n ~c:sh.Resnet.c ~k:sh.Resnet.k ~h:sh.Resnet.h ~w:sh.Resnet.w
    ~r:sh.Resnet.r ~s:sh.Resnet.s ()

let conv_specs = [ "acdebfg"; "acdbefg"; "adcebfg" ]

let parlooper_conv ~platform ~dtype sh =
  let cfg = conv_config_of_shape ~dtype sh ~n:1 in
  let per_core =
    conv_specs
    |> List.map (fun spec ->
           (Conv_trace.score ~platform ~nthreads:1 ~representative:1 cfg spec)
             .Perf_model.gflops)
    |> List.fold_left Float.max 0.0
  in
  per_core *. effective_cores platform dtype

let onednn_conv ~platform ~dtype sh =
  let cfg = conv_config_of_shape ~dtype sh ~n:(Platform.cores platform) in
  Onednn.conv_gflops ~platform cfg

(* sustained all-to-all LLC / uncore bandwidth for core-to-core activation
   hand-off between cascading layers: SPR crosses two sockets' meshes and
   UPI; single-socket parts sustain more relative to their compute peak *)
let llc_xcore_gbs (p : Platform.t) =
  match p.Platform.name with
  | "SPR" -> 40.0
  | "GVT3" -> 160.0
  | "Zen4" -> 120.0
  | "ADL" -> 100.0
  | _ -> 80.0
