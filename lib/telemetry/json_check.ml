(* Minimal dependency-free JSON reader (RFC 8259 grammar). The telemetry
   reports, Chrome traces and bench JSON files are emitted by hand-written
   printers; [validate] checks them in tests and right after writing, so a
   malformed escape or a trailing comma fails the producing run instead of
   a downstream consumer, and [parse] reads them back. *)

exception Bad_json of string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      incr pos;
      Obj [])
    else
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let acc = (k, value ()) :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members acc
        | Some '}' ->
          incr pos;
          Obj (List.rev acc)
        | _ -> fail "object"
      in
      members []
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (
      incr pos;
      Arr [])
    else
      let rec elems acc =
        let acc = value () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          elems acc
        | Some ']' ->
          incr pos;
          Arr (List.rev acc)
        | _ -> fail "array"
      in
      elems []
  and string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let hex4 () =
      if !pos + 4 > n then fail "unicode escape";
      let u = ref 0 in
      for _ = 1 to 4 do
        let d =
          match s.[!pos] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | _ -> fail "unicode escape"
        in
        u := (!u lsl 4) lor d;
        incr pos
      done;
      !u
    in
    let add_code u =
      Buffer.add_utf_8_uchar b
        (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep)
    in
    let rec chars () =
      match peek () with
      | Some '"' ->
        incr pos;
        Buffer.contents b
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some (('"' | '\\' | '/') as c) ->
          incr pos;
          Buffer.add_char b c
        | Some ('b' | 'f' | 'n' | 'r' | 't' as c) ->
          incr pos;
          Buffer.add_char b
            (match c with
            | 'b' -> '\b'
            | 'f' -> '\012'
            | 'n' -> '\n'
            | 'r' -> '\r'
            | _ -> '\t')
        | Some 'u' ->
          incr pos;
          let u = hex4 () in
          (* a high surrogate followed by an escaped low one is a single
             code point; a lone surrogate decodes to U+FFFD *)
          if
            u land 0xFC00 = 0xD800
            && !pos + 1 < n
            && s.[!pos] = '\\'
            && s.[!pos + 1] = 'u'
          then begin
            let save = !pos in
            pos := !pos + 2;
            let lo = hex4 () in
            if lo land 0xFC00 = 0xDC00 then
              add_code (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
            else begin
              pos := save;
              add_code u
            end
          end
          else add_code u
        | _ -> fail "escape");
        chars ()
      | Some c when Char.code c >= 0x20 ->
        incr pos;
        Buffer.add_char b c;
        chars ()
      | _ -> fail "string"
    in
    chars ()
  and keyword () =
    let ok kw =
      let l = String.length kw in
      if !pos + l <= n && String.sub s !pos l = kw then (
        pos := !pos + l;
        true)
      else false
    in
    if ok "true" then Bool true
    else if ok "false" then Bool false
    else if ok "null" then Null
    else fail "keyword"
  and number () =
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "number"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let validate s = ignore (parse s)
let check s = match validate s with () -> Ok () | exception Bad_json m -> Error m

(* ---- emission helpers --------------------------------------------------
   These live here (not in Report) so low-level emitters — Recorder,
   Expose — can produce strings this module accepts without pulling in the
   whole report layer. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON floats: no nan/inf, no exponent surprises for consumers *)
let float_repr f =
  if Float.is_nan f || (Float.is_integer f && Float.abs f < 1e15) then
    Printf.sprintf "%.0f" (if Float.is_nan f then 0.0 else f)
  else if Float.is_finite f then Printf.sprintf "%.6g" f
  else "0"
