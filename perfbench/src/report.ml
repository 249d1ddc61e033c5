(* Metric lines for people, then the one-line JSON result. *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_lines ms =
  List.iter
    (fun m ->
      Printf.printf "%-36s %14.6g %-8s%s\n" m.name m.value m.unit_
        (if m.note = "" then "" else "  " ^ m.note))
    ms

let json_number x = Printf.sprintf "%.17g" x

let json ~correct ~attempted ~failed ms =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))

let json_floats xs = "[" ^ String.concat ", " (List.map json_number xs) ^ "]"
