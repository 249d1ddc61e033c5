exception Invalid_spec of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_spec s)) fmt

type par_kind =
  | Seq
  | Collapse of { group : int; pos : int; size : int }
  | Grid of { axis : Spec_parser.grid_axis; ways : int }

type level = {
  loop : int;
  occ : int;  (** occurrence index of this loop, outer-to-inner *)
  step : int;
  parent_step : int option;  (** step of the enclosing occurrence *)
  parent_level : int;  (** level index of the enclosing occurrence, -1 *)
  barrier_after : bool;
  par : par_kind;
}

type t = {
  specs : Loop_spec.t array;
  levels : level array;
  innermost : int array;  (** per loop: level index of its last occurrence *)
  schedule : Spec_parser.schedule;
  grid : (int * int * int) option;  (** (R, C, L) for PAR-MODE 2 *)
  has_parallel : bool;
}

(* ---- validation + level construction ---- *)

let compile specs parsed =
  let nspecs = Array.length specs in
  if nspecs = 0 then fail "no logical loops declared";
  let used = Spec_parser.num_loops_used parsed in
  if used > nspecs then
    fail "spec string uses %d loops but only %d are declared" used nspecs;
  for l = 0 to nspecs - 1 do
    if Spec_parser.occurrence_count parsed l = 0 then
      fail "logical loop '%c' is declared but absent from the spec string"
        (Char.chr (l + Char.code 'a'))
  done;
  let occs = Array.of_list parsed.Spec_parser.occurrences in
  let totals =
    Array.init nspecs (fun l -> Spec_parser.occurrence_count parsed l)
  in
  (* assign occurrence indices and steps *)
  let seen = Array.make nspecs 0 in
  let mixed_grid =
    Spec_parser.has_grid parsed
    && Array.exists
         (fun (o : Spec_parser.occurrence) -> o.parallel && o.grid = None)
         occs
  in
  if mixed_grid then
    fail
      "spec string mixes explicit thread-grid annotations (PAR-MODE 2) with \
       un-annotated parallel loops (PAR-MODE 1)";
  let levels =
    Array.map
      (fun (o : Spec_parser.occurrence) ->
        let l = o.loop in
        let occ = seen.(l) in
        seen.(l) <- occ + 1;
        let total = totals.(l) in
        let step =
          try Loop_spec.step_at specs.(l) ~occ ~total
          with Invalid_argument m -> fail "%s" m
        in
        let parent_step =
          if occ = 0 then None
          else begin
            let ps = Loop_spec.step_at specs.(l) ~occ:(occ - 1) ~total in
            if ps mod step <> 0 then
              fail
                "loop '%c': blocking step %d at occurrence %d does not \
                 divide parent step %d (perfect nesting required)"
                (Char.chr (l + Char.code 'a'))
                step occ ps;
            Some ps
          end
        in
        let par =
          match (o.parallel, o.grid) with
          | false, _ -> Seq
          | true, Some (axis, ways) -> Grid { axis; ways }
          | true, None -> Collapse { group = -1; pos = -1; size = -1 }
        in
        {
          loop = l;
          occ;
          step;
          parent_step;
          parent_level = -1;
          barrier_after = o.barrier_after;
          par;
        })
      occs
  in
  (* resolve parent occurrence level indices and innermost occurrences *)
  let innermost = Array.make nspecs (-1) in
  let last_level_of = Array.make nspecs (-1) in
  Array.iteri
    (fun i lv ->
      levels.(i) <- { lv with parent_level = last_level_of.(lv.loop) };
      last_level_of.(lv.loop) <- i;
      (* the last occurrence is the innermost one *)
      if lv.occ = totals.(lv.loop) - 1 then innermost.(lv.loop) <- i)
    levels;
  (* group consecutive PAR-MODE 1 levels into collapse groups *)
  let group = ref (-1) in
  let i = ref 0 in
  let n = Array.length levels in
  while !i < n do
    (match levels.(!i).par with
    | Collapse _ ->
      incr group;
      let j = ref !i in
      while
        !j < n && (match levels.(!j).par with Collapse _ -> true | _ -> false)
      do
        incr j
      done;
      let size = !j - !i in
      for k = !i to !j - 1 do
        levels.(k) <-
          { (levels.(k)) with par = Collapse { group = !group; pos = k - !i; size } }
      done;
      i := !j
    | _ -> incr i)
  done;
  let grid =
    if Spec_parser.has_grid parsed then begin
      let r, c, l = Spec_parser.grid_shape parsed in
      Some (r, c, l)
    end
    else None
  in
  let has_parallel =
    Array.exists (fun lv -> lv.par <> Seq) levels
  in
  {
    specs;
    levels;
    innermost;
    schedule = parsed.Spec_parser.schedule;
    grid;
    has_parallel;
  }

let grid_threads t =
  match t.grid with Some (r, c, l) -> Some (r * c * l) | None -> None

let required_threads t ~default =
  match t.grid with
  | Some (r, c, l) -> r * c * l
  | None -> if t.has_parallel then max 1 default else 1

(* trip count of a level: number of iterations of this loop occurrence
   within one activation. Blocked occurrences have a uniform trip
   (parent_step / step); outermost occurrences have ceil(range/step). *)
let static_trip t lv =
  match lv.parent_step with
  | Some ps -> ps / lv.step
  | None ->
    let s = t.specs.(lv.loop) in
    (s.Loop_spec.bound - s.Loop_spec.start + lv.step - 1) / lv.step

(* value bounds of one activation: base comes from the parent occurrence
   level's current value for blocked occurrences, from the declaration for
   outermost ones; the upper bound clamps to the declared loop bound. *)
let activation_range t lv cur =
  let s = t.specs.(lv.loop) in
  match lv.parent_step with
  | None -> (s.Loop_spec.start, s.Loop_spec.bound)
  | Some ps ->
    let base = cur.(lv.parent_level) in
    (base, min (base + ps) s.Loop_spec.bound)

let grid_coords ~grid ~tid =
  let _, c, l = grid in
  let row = tid / (c * l) in
  let col = tid / l mod c in
  let layer = tid mod l in
  (row, col, layer)

let body_invocations t =
  (* run the serial nest logic, counting innermost visits *)
  let count = ref 0 in
  let cur = Array.make (Array.length t.levels) 0 in
  let n = Array.length t.levels in
  let rec go i =
    if i = n then incr count
    else begin
      let lv = t.levels.(i) in
      let lo, hi = activation_range t lv cur in
      let v = ref lo in
      while !v < hi do
        cur.(i) <- !v;
        go (i + 1);
        v := !v + lv.step
      done
    end
  in
  go 0;
  !count

(* ---- execution ---- *)

let exec_on_ctx t ~(ctx : Team.ctx) ~body =
  let nlevels = Array.length t.levels in
  (* current value per loop level; the body's logical-index array is the
     innermost occurrence value of each loop *)
  let cur = Array.make nlevels 0 in
  let env = Array.make (Array.length t.specs) 0 in
  let fill_env () =
    for l = 0 to Array.length env - 1 do
      env.(l) <- cur.(t.innermost.(l))
    done
  in
  let encounter = ref 0 in
  (* decompose tid for PAR-MODE 2 *)
  let my_row, my_col, my_layer =
    match t.grid with
    | Some g -> grid_coords ~grid:g ~tid:ctx.Team.tid
    | None -> (0, 0, 0)
  in
  let axis_id (axis : Spec_parser.grid_axis) =
    match axis with R -> my_row | C -> my_col | L -> my_layer
  in
  let rec run_level i =
    if i = nlevels then begin
      fill_env ();
      body env
    end
    else begin
      let lv = t.levels.(i) in
      (match lv.par with
      | Seq ->
        let lo, hi = activation_range t lv cur in
        let v = ref lo in
        while !v < hi do
          cur.(i) <- !v;
          run_level (i + 1);
          v := !v + lv.step
        done
      | Grid { axis; ways } ->
        let lo, hi = activation_range t lv cur in
        let trip = (hi - lo + lv.step - 1) / lv.step in
        let chunk = (trip + ways - 1) / ways in
        let id = axis_id axis in
        let c0 = id * chunk and c1 = min ((id + 1) * chunk) trip in
        for c = c0 to c1 - 1 do
          cur.(i) <- lo + (c * lv.step);
          run_level (i + 1)
        done
      | Collapse { pos; size; _ } when pos = 0 ->
        (* linearize the whole group *)
        let glevels = Array.sub t.levels i size in
        let trips = Array.map (fun l -> static_trip t l) glevels in
        let total = Array.fold_left ( * ) 1 trips in
        let decode_and_run idx =
          (* outer-to-inner decomposition; blocked members read their base
             from their parent occurrence level (which, if inside the
             group, was just set). Tuples whose clamped value overruns a
             loop bound (partial trailing block) are skipped. *)
          let rem = ref idx in
          let divisor = ref total in
          let valid = ref true in
          Array.iteri
            (fun g lv' ->
              divisor := !divisor / trips.(g);
              let comp = !rem / !divisor in
              rem := !rem mod !divisor;
              let base =
                if lv'.parent_level < 0 then
                  t.specs.(lv'.loop).Loop_spec.start
                else cur.(lv'.parent_level)
              in
              let v = base + (comp * lv'.step) in
              if v >= t.specs.(lv'.loop).Loop_spec.bound then valid := false;
              cur.(i + g) <- v)
            glevels;
          if !valid then run_level (i + size)
        in
        (match t.schedule with
        | Spec_parser.Static ->
          (* contiguous block per thread, like omp static *)
          let per = total / ctx.Team.nthreads in
          let rem = total mod ctx.Team.nthreads in
          let tid = ctx.Team.tid in
          let lo = (tid * per) + min tid rem in
          let hi = lo + per + if tid < rem then 1 else 0 in
          for idx = lo to hi - 1 do
            decode_and_run idx
          done
        | Spec_parser.Dynamic chunk ->
          let instance = !encounter in
          incr encounter;
          let continue = ref true in
          while !continue do
            let start = ctx.Team.fetch_chunk ~instance ~chunk in
            if start >= total then continue := false
            else
              for idx = start to min (start + chunk) total - 1 do
                decode_and_run idx
              done
          done)
      | Collapse _ ->
        (* non-leading members are consumed by the leading member *)
        run_level (i + 1));
      (* barrier on the last member of a collapse group or any other level *)
      let run_barrier =
        match lv.par with
        | Collapse { pos; size; _ } -> lv.barrier_after && pos = size - 1
        | _ -> lv.barrier_after
      in
      if run_barrier then ctx.Team.barrier ()
    end
  in
  (* collapse groups are entered only via their leading member: guard
     against direct recursion into non-leading members by construction of
     run_level — the leading member skips past the whole group. *)
  run_level 0

(* The recursive skip above must not re-run non-leading collapse members;
   run_level i for a non-leading member is only reachable from the code
   path `run_level (i + 1)` of the member before it, which never happens
   because the leading member jumps to i + size. The `Collapse _` fallback
   branch is therefore defensive. *)

let check_threads t nthreads =
  match t.grid with
  | Some (r, c, l) when r * c * l <> nthreads ->
    fail "thread grid %dx%dx%d needs %d threads, got %d" r c l (r * c * l)
      nthreads
  | _ -> ()

let exec ?label t ~nthreads ~init ~term ~body =
  check_threads t nthreads;
  if not (Telemetry.Registry.enabled ()) then
    (* fast path: tracing off costs one bool load per run *)
    Team.run ~nthreads (fun ctx ->
        (match init with Some f -> f () | None -> ());
        exec_on_ctx t ~ctx ~body;
        match term with Some f -> f () | None -> ())
  else begin
    let name = match label with Some l -> l | None -> "loop-nest" in
    let wait_counter =
      Telemetry.Counter.find_or_create Telemetry.Registry.barrier_wait_ns_name
    in
    Team.run ~nthreads (fun ctx ->
        (* time the whole per-thread traversal and, separately, the time
           this thread spends blocked in barriers *)
        let wait_ns = ref 0L in
        let ctx_traced =
          {
            ctx with
            Team.barrier =
              (fun () ->
                let b0 = Telemetry.Clock.now_ns () in
                ctx.Team.barrier ();
                wait_ns :=
                  Int64.add !wait_ns
                    (Telemetry.Clock.elapsed_ns ~since:b0));
          }
        in
        let t0 = Telemetry.Clock.now_ns () in
        (match init with Some f -> f () | None -> ());
        exec_on_ctx t ~ctx:ctx_traced ~body;
        (match term with Some f -> f () | None -> ());
        let dur_ns = Telemetry.Clock.elapsed_ns ~since:t0 in
        Telemetry.Counter.add wait_counter (Int64.to_int !wait_ns);
        Telemetry.Span.record ~cat:"loop" ~tid:ctx.Team.tid ~name
          ~start_ns:t0 ~dur_ns
          ~args:
            [
              ("barrier_wait_ns", Int64.to_float !wait_ns);
              ("nthreads", float_of_int ctx.Team.nthreads);
            ]
          ())
  end

let exec_sequential t ~nthreads ~body =
  check_threads t nthreads;
  Team.run_sequential ~nthreads (fun ctx ->
      exec_on_ctx t ~ctx ~body:(fun ind -> body ~tid:ctx.Team.tid ind))
