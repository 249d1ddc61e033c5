(* Live metrics plane: interval snapshots of the counter/gauge stores
   with per-counter deltas and rates, rendered as one JSON line per
   snapshot (the Cluster.Driver live-metrics stream). Reads the same
   interned stores the runtime writes, so a snapshot is just two sorted
   assoc lists — cheap enough to take every few hundred ms during a
   serve run. *)

type snapshot = {
  at_s : float;  (* Clock.now_s at capture *)
  counters : (string * int) list;
  gauges : (string * int) list;
}

let take () =
  { at_s = Clock.now_s (); counters = Counter.all (); gauges = Gauge.all () }

(* per-counter increase since [prev]; counters absent from [prev] count
   from zero (they were created mid-interval) *)
let deltas ~prev snap =
  List.map
    (fun (n, v) ->
      let p = match List.assoc_opt n prev.counters with
        | Some p -> p
        | None -> 0
      in
      (n, v - p))
    snap.counters

let jsonl ?prev snap =
  let b = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let obj pairs render =
    List.iteri
      (fun i (n, v) ->
        if i > 0 then pr ",";
        pr "\"%s\":%s" (Json_check.escape n) (render v))
      pairs
  in
  pr "{\"at_s\":%s," (Json_check.float_repr snap.at_s);
  pr "\"counters\":{";
  obj snap.counters string_of_int;
  pr "},\"gauges\":{";
  obj snap.gauges string_of_int;
  pr "}";
  (match prev with
  | None -> ()
  | Some prev ->
    let interval = snap.at_s -. prev.at_s in
    let ds = deltas ~prev snap in
    pr ",\"interval_s\":%s" (Json_check.float_repr interval);
    pr ",\"deltas\":{";
    obj ds string_of_int;
    pr "},\"rates\":{";
    obj ds (fun d ->
        Json_check.float_repr
          (if interval > 0.0 then float_of_int d /. interval else 0.0));
    pr "}");
  pr "}";
  Buffer.contents b
