type t = {
  start : int;
  bound : int;
  step : int;
  block_steps : int list;
}

let make ?(start = 0) ?(block_steps = []) ~bound ~step () =
  if step <= 0 then invalid_arg "Loop_spec.make: step must be positive";
  if start > bound then invalid_arg "Loop_spec.make: start > bound";
  List.iter
    (fun s -> if s <= 0 then invalid_arg "Loop_spec.make: blocking step <= 0")
    block_steps;
  { start; bound; step; block_steps }

let step_at t ~occ ~total =
  if occ < 0 || occ >= total then invalid_arg "Loop_spec.step_at: bad occ";
  if total - 1 > List.length t.block_steps then
    invalid_arg
      (Printf.sprintf
         "Loop_spec.step_at: loop blocked %d times but only %d blocking \
          steps declared"
         (total - 1)
         (List.length t.block_steps));
  if occ = total - 1 then t.step else List.nth t.block_steps occ

let to_string t =
  Printf.sprintf "[%d..%d step %d blocks (%s)]" t.start t.bound t.step
    (String.concat ", " (List.map string_of_int t.block_steps))
