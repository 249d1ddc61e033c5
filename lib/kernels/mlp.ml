module View = Tensor.View

type activation = No_activation | Relu | Gelu | Sigmoid

type layer = {
  gemm : Gemm.t;
  weights : Tensor.t;
  bias : Tensor.t option;
  act : activation;
}

type t = {
  layers : layer array;
  batch : int;
  block : int;
  dtype : Datatype.t;
}

let create ~rng ?(dtype = Datatype.F32) ?(bias = true) ?(act = Relu)
    ?(spec = Gemm.default_spec) ~batch ~features ~block () =
  if List.length features < 2 then
    invalid_arg "Mlp.create: need at least input and output widths";
  List.iter
    (fun f ->
      if f mod block <> 0 then
        invalid_arg "Mlp.create: widths must be divisible by the block size")
    features;
  if batch mod block <> 0 then
    invalid_arg "Mlp.create: batch must be divisible by the block size";
  let pairs =
    let rec go = function
      | a :: (b :: _ as rest) -> (a, b) :: go rest
      | _ -> []
    in
    go features
  in
  let layers =
    List.map
      (fun (fin, fout) ->
        let cfg =
          Gemm.make_config ~bm:block ~bn:block ~bk:block ~dtype ~m:fout
            ~n:batch ~k:fin ()
        in
        let gemm = Gemm.create cfg spec in
        (* Xavier-ish init *)
        let scale = sqrt (2.0 /. float_of_int fin) in
        let w_logical = Tensor.random dtype [| fout; fin |] rng ~scale in
        let weights = Gemm.pack_a cfg w_logical in
        let bias =
          if bias then begin
            let b = Tensor.create Datatype.F32 [| fout |] in
            Tensor.fill_random b rng ~scale:0.1;
            Some b
          end
          else None
        in
        { gemm; weights; bias; act })
      pairs
  in
  { layers = Array.of_list layers; batch; block; dtype }

let pack_input t input =
  let l0 = t.layers.(0) in
  Gemm.pack_b (Gemm.config l0.gemm) input

let act_op = function
  | No_activation -> None
  | Relu -> Some Tpp_unary.Relu
  | Gelu -> Some Tpp_unary.Gelu
  | Sigmoid -> Some Tpp_unary.Sigmoid

let layer_post layer ~im ~in_:_ ~c_block =
  (match layer.bias with
  | Some b ->
    let bm = c_block.View.rows in
    let bias_col =
      Tensor.view_flat b ~off:(im * bm) ~rows:bm ~cols:1 ~ld:1
    in
    Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Col ~a:c_block
      ~b:bias_col ~out:c_block
  | None -> ());
  match act_op layer.act with
  | Some op -> Tpp_unary.exec op ~inp:c_block ~out:c_block
  | None -> ()

let flops t =
  Array.fold_left
    (fun acc l -> acc +. Gemm.flops (Gemm.config l.gemm))
    0.0 t.layers

(* logical data moved once per forward: each layer's weights + in/out acts *)
let traffic_bytes t =
  Array.fold_left
    (fun acc l -> acc +. Gemm.traffic_bytes (Gemm.config l.gemm))
    0.0 t.layers

let instance_of t =
  let widths =
    Array.to_list t.layers
    |> List.map (fun l -> string_of_int (Gemm.config l.gemm).Gemm.m)
  in
  Printf.sprintf "n%d %s %s" t.batch
    (String.concat "-"
       (string_of_int (Gemm.config t.layers.(0).gemm).Gemm.k :: widths))
    (Datatype.to_string t.dtype)

let forward ?nthreads t input =
  let go () =
    Array.fold_left
      (fun acts layer ->
        let cfg = Gemm.config layer.gemm in
        let c = Gemm.alloc_c ~dtype:t.dtype cfg in
        Gemm.run ?nthreads ~post:(layer_post layer) layer.gemm ~a:layer.weights
          ~b:acts ~c;
        c)
      input t.layers
  in
  if not (Telemetry.Registry.enabled ()) then go ()
  else begin
    let t0 = Telemetry.Clock.now_ns () in
    let r = go () in
    Telemetry.Registry.record_kernel ~kind:"mlp" ~instance:(instance_of t)
      ~flops:(flops t) ~bytes:(traffic_bytes t)
      ~seconds:(Telemetry.Clock.elapsed_s ~since:t0);
    r
  end

let unpack_output t ~layer_idx blocked =
  Gemm.unpack_c (Gemm.config t.layers.(layer_idx).gemm) blocked

let apply_act act x =
  match act with
  | No_activation -> x
  | Relu -> Reference.relu x
  | Gelu -> Reference.gelu x
  | Sigmoid -> Reference.sigmoid x

let reference_forward t input =
  Array.fold_left
    (fun acts layer ->
      let cfg = Gemm.config layer.gemm in
      let w =
        (* reconstruct logical weights from the blocked tensor *)
        Tensor.init (Tensor.dtype layer.weights)
          [| cfg.Gemm.m; cfg.Gemm.k |]
          (fun i ->
            Tensor.get layer.weights
              [|
                i.(0) / cfg.Gemm.bm;
                i.(1) / cfg.Gemm.bk;
                i.(0) mod cfg.Gemm.bm;
                i.(1) mod cfg.Gemm.bk;
              |])
      in
      let o = Reference.matmul w acts in
      let dims = Tensor.dims o in
      Tensor.init Datatype.F32 dims (fun i ->
          let v = Tensor.get o i in
          let v =
            match layer.bias with
            | Some b -> v +. Tensor.get b [| i.(0) |]
            | None -> v
          in
          (* intermediate activations are stored in the MLP's dtype, as in
             the blocked path *)
          Datatype.quantize t.dtype (apply_act layer.act v)))
    input t.layers
