(* Order statistics over raw samples (nearest rank), never histogram
   buckets. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let rank n q = max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let pct xs q =
  let a = sorted xs in
  if Array.length a = 0 then nan else a.(rank (Array.length a) q)

let median xs = pct xs 0.5
let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs
