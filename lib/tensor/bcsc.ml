type t = {
  rows : int;
  cols : int;
  bm : int;
  bk : int;
  colptr : int array;
  rowind : int array;
  values : Tensor.t;
  row_index : (int * int) array array;
  dtype : Datatype.t;
}

let nnz_blocks t = Array.length t.rowind

let total_blocks t = (t.rows / t.bm) * (t.cols / t.bk)

let sparsity t =
  1.0 -. (float_of_int (nnz_blocks t) /. float_of_int (total_blocks t))

let build_row_index ~mblocks ~colptr ~rowind =
  let acc = Array.make mblocks [] in
  let kblocks = Array.length colptr - 1 in
  (* walk columns in reverse so each row list ends up sorted by column *)
  for jb = kblocks - 1 downto 0 do
    for slot = colptr.(jb + 1) - 1 downto colptr.(jb) do
      let ib = rowind.(slot) in
      acc.(ib) <- (jb, slot) :: acc.(ib)
    done
  done;
  Array.map Array.of_list acc

(* Build from a predicate and a payload writer. [keep ib jb] decides if
   block (ib, jb) is stored; slots run down each block column in turn.
   [fill values stored] writes the payloads into the zeroed
   [max 1 nnzb; bm; bk] tensor, given the (ib, jb) of each slot. *)
let build ~dtype ~rows ~cols ~bm ~bk ~keep ~fill =
  assert (rows mod bm = 0 && cols mod bk = 0);
  let mblocks = rows / bm and kblocks = cols / bk in
  let colptr = Array.make (kblocks + 1) 0 in
  let blocks = ref [] in
  let count = ref 0 in
  for jb = 0 to kblocks - 1 do
    colptr.(jb) <- !count;
    for ib = 0 to mblocks - 1 do
      if keep ib jb then begin
        blocks := (ib, jb) :: !blocks;
        incr count
      end
    done
  done;
  colptr.(kblocks) <- !count;
  let stored = Array.of_list (List.rev !blocks) in
  let rowind = Array.map fst stored in
  let values = Tensor.create dtype [| max 1 !count; bm; bk |] in
  fill values stored;
  {
    rows;
    cols;
    bm;
    bk;
    colptr;
    rowind;
    values;
    row_index = build_row_index ~mblocks ~colptr ~rowind;
    dtype;
  }

(* Each stored block between the dense [rows x cols] buffer [dense] and
   its slot in [values], one strided copy a block, rounded to [dtype]. *)
let copy_blocks ~to_dense ~dtype ~cols ~bm ~bk (dense : Tensor.t)
    (values : Tensor.t) stored =
  let dims = [| bm; bk |] and dense_strides = [| cols; 1 |]
  and slot_strides = [| bk; 1 |] in
  Array.iteri
    (fun slot (ib, jb) ->
      let dense_off = (ib * bm * cols) + (jb * bk)
      and slot_off = slot * bm * bk in
      if to_dense then
        Tensor.strided_copy dtype dims ~src:values.Tensor.data
          ~src_off:slot_off ~src_strides:slot_strides ~dst:dense.Tensor.data
          ~dst_off:dense_off ~dst_strides:dense_strides
      else
        Tensor.strided_copy dtype dims ~src:dense.Tensor.data
          ~src_off:dense_off ~src_strides:dense_strides
          ~dst:values.Tensor.data ~dst_off:slot_off ~dst_strides:slot_strides)
    stored

(* the stored blocks of the dense [a] *)
let build_from ~keep ~bm ~bk a =
  let dims = Tensor.dims a in
  let rows = dims.(0) and cols = dims.(1) and dtype = Tensor.dtype a in
  build ~dtype ~rows ~cols ~bm ~bk ~keep
    ~fill:(copy_blocks ~to_dense:false ~dtype ~cols ~bm ~bk a)

let of_dense ~bm ~bk a =
  assert (Tensor.rank a = 2);
  let dims = Tensor.dims a in
  let rows = dims.(0) and cols = dims.(1) in
  let nonzero ib jb =
    let nz = ref false in
    for i = 0 to bm - 1 do
      for j = 0 to bk - 1 do
        if Tensor.get a [| (ib * bm) + i; (jb * bk) + j |] <> 0.0 then
          nz := true
      done
    done;
    !nz
  in
  build_from ~keep:nonzero ~bm ~bk a

let to_dense t =
  let d = Tensor.create t.dtype [| t.rows; t.cols |] in
  let stored = Array.make (nnz_blocks t) (0, 0) in
  for jb = 0 to (t.cols / t.bk) - 1 do
    for slot = t.colptr.(jb) to t.colptr.(jb + 1) - 1 do
      stored.(slot) <- (t.rowind.(slot), jb)
    done
  done;
  copy_blocks ~to_dense:true ~dtype:t.dtype ~cols:t.cols ~bm:t.bm ~bk:t.bk d
    t.values stored;
  d

let random ~rng ~dtype ~rows ~cols ~bm ~bk ~sparsity =
  assert (sparsity >= 0.0 && sparsity <= 1.0);
  let mblocks = rows / bm and kblocks = cols / bk in
  let mask = Array.make_matrix mblocks kblocks false in
  for ib = 0 to mblocks - 1 do
    for jb = 0 to kblocks - 1 do
      mask.(ib).(jb) <- not (Prng.bernoulli rng ~p:sparsity)
    done
  done;
  (* the payloads are the next nnzb * bm * bk draws, in slot order; an
     all-zero matrix draws nothing *)
  build ~dtype ~rows ~cols ~bm ~bk
    ~keep:(fun ib jb -> mask.(ib).(jb))
    ~fill:(fun values stored ->
      if Array.length stored > 0 then Tensor.fill_random values rng ~scale:1.0)

let block_view t slot =
  Tensor.view t.values [| slot; 0; 0 |] ~rows:t.bm ~cols:t.bk

let row_blocks t ib =
  Array.map (fun (jb, slot) -> (jb, block_view t slot)) t.row_index.(ib)

let prune_dense ~bm ~bk ~sparsity a =
  assert (Tensor.rank a = 2);
  let dims = Tensor.dims a in
  let rows = dims.(0) and cols = dims.(1) in
  assert (rows mod bm = 0 && cols mod bk = 0);
  let mblocks = rows / bm and kblocks = cols / bk in
  let norms = Array.make (mblocks * kblocks) (0.0, 0) in
  for ib = 0 to mblocks - 1 do
    for jb = 0 to kblocks - 1 do
      let s = ref 0.0 in
      for i = 0 to bm - 1 do
        for j = 0 to bk - 1 do
          let v = Tensor.get a [| (ib * bm) + i; (jb * bk) + j |] in
          s := !s +. (v *. v)
        done
      done;
      norms.((ib * kblocks) + jb) <- (!s, (ib * kblocks) + jb)
    done
  done;
  Array.sort compare norms;
  let to_drop =
    int_of_float (Float.round (sparsity *. float_of_int (Array.length norms)))
  in
  let dropped = Hashtbl.create to_drop in
  Array.iteri
    (fun rank (_, id) -> if rank < to_drop then Hashtbl.replace dropped id ())
    norms;
  build_from ~bm ~bk a
    ~keep:(fun ib jb -> not (Hashtbl.mem dropped ((ib * kblocks) + jb)))
