(* Benchmark worker: builds one workload's inputs from a seed, runs the
   pipeline once through its public entry points, checks the output against
   an oracle derived from the input's shape, and prints one JSON line.

     worker.exe rep --workload W --seed N --jobs J [--trace FILE]
     worker.exe selftest

   Every timed repetition is its own process, so it pays interning, arena
   growth, sorted-view builds, the containment memo and pool start-up the
   way one CLI invocation does. It also times the building of its inputs
   (instance, query, theory), which the pipeline call does not include.
   With [--trace FILE] the pipeline is run as its sequence of layer calls,
   each wrapped in a span that snapshots the layers' public counters; the
   spans are written to FILE in the Chrome Trace Event format. *)

open Logic
module Pool = Parallel.Pool
module Strategy = Portfolio.Strategy
module Zoo = Theories.Zoo

let now = Unix.gettimeofday

(* Wall and CPU seconds (every domain of the process) spent in [f ()]. *)
let timed f =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let t0 = now () and c0 = cpu () in
  let r = f () in
  (r, now () -. t0, cpu () -. c0)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* High-water resident set of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Inputs and oracles                                                  *)
(* ------------------------------------------------------------------ *)

(* answer-grid: a side x side grid, E-edges along rows and D-edges down
   columns. The seed shuffles the order in which edges are built, so it
   also decides the order in which the cell constants are interned. *)
let grid_side = 300
let down = Symbol.make "D" ~arity:2

type grid = {
  side : int;
  facts : Fact_set.t;
  cell : (int, int * int) Hashtbl.t;  (** term id -> (row, column) *)
}

let grid_instance ~side ~seed =
  let rng = Random.State.make [| seed |] in
  let n = side * (side - 1) in
  let edges = Array.init (2 * n) (fun k -> k) in
  shuffle rng edges;
  let nodes = Array.make (side * side) None in
  let cell = Hashtbl.create (side * side) in
  let node i j =
    match nodes.((i * side) + j) with
    | Some t -> t
    | None ->
        let t = Term.const (Printf.sprintf "g%d_%d" i j) in
        nodes.((i * side) + j) <- Some t;
        Hashtbl.replace cell t.Term.id (i, j);
        t
  in
  let edge k =
    if k < n then
      let i = k / (side - 1) and j = k mod (side - 1) in
      Atom.make Zoo.e2 [ node i j; node i (j + 1) ]
    else
      let i = (k - n) / side and j = (k - n) mod side in
      Atom.make down [ node i j; node (i + 1) j ]
  in
  let atoms = Array.to_list (Array.map edge edges) in
  { side; facts = Fact_set.of_list atoms; cell }

(* q(x,y) :- E(x,z), E(z,y) *)
let two_step_query () =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  Cq.make ~free:[ x; y ] [ Atom.make Zoo.e2 [ x; z ]; Atom.make Zoo.e2 [ z; y ] ]

(* The answers follow from the grid's shape alone: every cell paired with
   the cell two steps to its right, each exactly once. *)
let check_grid_answers g tuples =
  let side = g.side in
  let expected = side * (side - 2) in
  let seen = Bytes.make expected '\000' in
  let count = ref 0 in
  let bad =
    List.find_opt
      (fun tuple ->
        match tuple with
        | [ a; b ] -> (
            match
              (Hashtbl.find_opt g.cell a.Term.id, Hashtbl.find_opt g.cell b.Term.id)
            with
            | Some (i, j), Some (i', j') when i = i' && j' = j + 2 ->
                let k = (i * (side - 2)) + j in
                if Bytes.get seen k <> '\000' then true
                else (
                  Bytes.set seen k '\001';
                  incr count;
                  false)
            | _ -> true)
        | _ -> true)
      tuples
  in
  match bad with
  | Some _ -> Error "grid: an answer is not a cell paired with the cell two steps right"
  | None when !count <> expected ->
      Error (Printf.sprintf "grid: %d answers, expected %d" !count expected)
  | None -> Ok ()

(* chase-td: Figure 1's green path G^8(a0,a8). The seed shuffles the
   interning order of a0..a8 and the insertion order of the edges. *)
let td_depth = 8

(* |Ch_0| .. |Ch_8| of T_d over G^8 (Figure 1). *)
let td_stage_counts = [| 8; 28; 98; 276; 798; 2348; 8260; 37418; 219344 |]

type td_input = { a0 : Term.t; a8 : Term.t; g8 : Fact_set.t; phi3 : Cq.t }

let td_instance ~seed =
  let rng = Random.State.make [| seed |] in
  let order = Array.init 9 Fun.id in
  shuffle rng order;
  let nodes = Array.make 9 None in
  Array.iter (fun i -> nodes.(i) <- Some (Term.const (Printf.sprintf "a%d" i))) order;
  let nodes = Array.map Option.get nodes in
  let edges = Array.init 8 Fun.id in
  shuffle rng edges;
  let g8 =
    Fact_set.of_list
      (Array.to_list
         (Array.map (fun i -> Atom.make Zoo.g2 [ nodes.(i); nodes.(i + 1) ]) edges))
  in
  let _, _, phi3 = Zoo.phi_r 3 in
  { a0 = nodes.(0); a8 = nodes.(8); g8; phi3 }

(* The theories are built from their text, as the command line does; the
   output checks would catch any difference from Zoo.t_p and Zoo.t_d. *)
let t_p_text = "extend: E(x,y) -> exists z. E(y,z)"

let t_d_text =
  "loop: true -> exists x. R(x,x), G(x,x)\n\
   pins: dom(x) -> exists z z'. R(x,z), G(x,z')\n\
   grid: R(x,x'), G(x,u), G(u,u') -> exists z. R(u',z), G(x',z)"

(* phi_R^3(a0,a8) = exists x' y'. R^3(a0,x'), R^3(a8,y'), G(x',y'),
   decided by walking the chase result's R-edges directly. *)
let phi_r_holds ~n facts a b =
  let succ = Hashtbl.create 1024 in
  List.iter
    (fun at -> Hashtbl.add succ (Atom.arg at 0).Term.id (Atom.arg at 1))
    (Fact_set.by_rel facts Zoo.r2);
  let step set =
    let next = Hashtbl.create 64 in
    Hashtbl.iter
      (fun id _ ->
        List.iter
          (fun t -> Hashtbl.replace next t.Term.id ())
          (Hashtbl.find_all succ id))
      set;
    next
  in
  let reach t =
    let s = Hashtbl.create 1 in
    Hashtbl.replace s t.Term.id ();
    let rec go k s = if k = 0 then s else go (k - 1) (step s) in
    go n s
  in
  let xs = reach a and ys = reach b in
  List.exists
    (fun at ->
      Hashtbl.mem xs (Atom.arg at 0).Term.id && Hashtbl.mem ys (Atom.arg at 1).Term.id)
    (Fact_set.by_rel facts Zoo.g2)

(* marked-e2 / marked-e2-par: phi_R^4, and the disjunct count of its
   rewriting. *)
let marked_n = 4
let marked_disjuncts = 106

(* Theorem 5(B): [q] is isomorphic to G^len(x,y) — len G-atoms forming one
   directed path of distinct variables from the first answer variable to
   the second. *)
let is_green_path ~len q =
  match Cq.free q with
  | [ x; y ] ->
      let atoms = Cq.atoms q in
      let succ = Hashtbl.create len in
      List.length atoms = len
      && List.for_all
           (fun a ->
             Symbol.equal (Atom.rel a) Zoo.g2
             && List.for_all Term.is_var (Atom.args a)
             &&
             let u = (Atom.arg a 0).Term.id in
             (not (Hashtbl.mem succ u))
             && (Hashtbl.add succ u (Atom.arg a 1);
                 true))
           atoms
      &&
      let visited = Hashtbl.create len in
      Hashtbl.replace visited x.Term.id ();
      let rec walk k cur =
        if k = 0 then Term.equal cur y
        else
          match Hashtbl.find_opt succ cur.Term.id with
          | Some nxt when not (Hashtbl.mem visited nxt.Term.id) ->
              Hashtbl.replace visited nxt.Term.id ();
              walk (k - 1) nxt
          | _ -> false
      in
      walk len x
  | _ -> false

let check_marked (res : Marked.Process.result) =
  let ucq = res.Marked.Process.rewriting in
  let len = 1 lsl marked_n in
  if not res.Marked.Process.complete then Error "marked: process did not complete"
  else if not (Ucq.exists (is_green_path ~len) ucq) then
    Error (Printf.sprintf "marked: no disjunct is isomorphic to G^%d" len)
  else if Ucq.cardinal ucq <> marked_disjuncts then
    Error
      (Printf.sprintf "marked: %d disjuncts, expected %d" (Ucq.cardinal ucq)
         marked_disjuncts)
  else Ok ()

let check_chase inp run verdict =
  let counts =
    Array.init (Chase.Engine.depth run + 1) (fun i ->
        Fact_set.cardinal (Chase.Engine.stage run i))
  in
  if Chase.Engine.interrupted run <> None then Error "chase: the guard tripped"
  else if counts <> td_stage_counts then
    Error
      (Printf.sprintf "chase: stage sizes %s"
         (String.concat "," (Array.to_list (Array.map string_of_int counts))))
  else if
    not (phi_r_holds ~n:3 (Chase.Engine.result run) inp.a0 inp.a8)
  then Error "chase: phi_R^3(a0,a8) does not hold in the chase"
  else
    match verdict with
    | Chase.Entailment.Entailed _ -> Ok ()
    | _ -> Error "chase: entails_run did not report phi_R^3(a0,a8) as entailed"

(* ------------------------------------------------------------------ *)
(* Tracing: spans around layer calls, with counter snapshots           *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  parent : string;
  start : float;
  stop : float;
  args : (string * float) list;
}

let spans : span list ref = ref []

let reset_counters pool =
  Eval.reset_counters ();
  Homomorphism.reset_counters ();
  Fact_set.reset_counters ();
  Containment.reset_memo ();
  Containment.reset_solver_stats ();
  Pool.reset_gate_counters ();
  Pool.reset_busy pool

let snapshot pool guard =
  let fi = float_of_int in
  let e = Eval.counters () and h = Homomorphism.counters () in
  let f = Fact_set.counters () and g = Pool.gate_counters () in
  let m = Containment.memo_stats () and s = Containment.solver_stats () in
  let a = Arena.stats Arena.global and gp = Guard.progress guard in
  [
    ("eval.plans", fi e.Eval.plans);
    ("eval.seeks", fi e.Eval.seeks);
    ("eval.gallops", fi e.Eval.gallops);
    ("eval.emitted", fi e.Eval.emitted);
    ("homomorphism.searches", fi h.Homomorphism.searches);
    ("homomorphism.nodes", fi h.Homomorphism.nodes);
    ("homomorphism.reg_ops", fi h.Homomorphism.reg_ops);
    ("fact_set.builds", fi f.Fact_set.builds);
    ("fact_set.extends", fi f.Fact_set.extends);
    ("fact_set.delta_atoms", fi f.Fact_set.delta_atoms);
    ("fact_set.posting_probes", fi f.Fact_set.posting_probes);
    ("containment.memo_hits", fi m.Containment.hits);
    ("containment.memo_misses", fi m.Containment.misses);
    ("containment.splits", fi s.Containment.splits);
    ("containment.prescreened", fi s.Containment.prescreened);
    ("pool.inline_batches", fi g.Pool.inline_batches);
    ("pool.fanout_batches", fi g.Pool.fanout_batches);
    ("pool.busy_s", Array.fold_left ( +. ) 0. (Pool.busy_times pool));
    ("arena.bytes", fi a.Arena.bytes);
    ("arena.spans", fi a.Arena.spans);
    ("guard.checkpoints", fi gp.Guard.checkpoints);
  ]

(* Run [f] as the span [name] under [parent], recording the counters it
   moved. *)
let record_span ~pool ~guard ?(parent = "") name f =
  let before = snapshot pool guard in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let after = snapshot pool guard in
  let args = List.map2 (fun (k, x) (_, y) -> (k, y -. x)) before after in
  spans := { name; parent; start = t0; stop = t1; args } :: !spans;
  r

(* How a repetition makes its layer calls. Untraced, [span] only calls [f]
   and no guard is passed. Traced, [span] records a span, and every call
   gets a guard whose heap ceiling is out of reach, so that it samples the
   heap. *)
type probe = {
  span : 'a. ?parent:string -> string -> (unit -> 'a) -> 'a;
  guard : Guard.t option;
}

let untraced = { span = (fun ?parent:_ _ f -> f ()); guard = None }

(* A traced repetition starts with every counter reset. *)
let tracing pool =
  let guard = Guard.create ~max_heap_words:(max_int / 4) () in
  reset_counters pool;
  spans := [];
  {
    span = (fun ?parent name f -> record_span ~pool ~guard ?parent name f);
    guard = Some guard;
  }

let find_span name = List.find (fun s -> s.name = name) !spans
let span_s name = (find_span name).stop -. (find_span name).start
let counter name key = List.assoc key (find_span name).args

let json_string s = Printf.sprintf "%S" s

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.9g" x
  else "null"

let write_trace file ~run_id ~origin =
  let oc = open_out file in
  let event s =
    let args =
      ("run_id", json_string run_id)
      :: ("parent", json_string s.parent)
      :: List.map (fun (k, v) -> (k, json_float v)) s.args
    in
    Printf.sprintf
      "{\"name\":%s,\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
      (json_string s.name)
      ((s.start -. origin) *. 1e6)
      ((s.stop -. s.start) *. 1e6)
      (String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) args))
  in
  Printf.fprintf oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n%s\n]}\n"
    (String.concat ",\n" (List.rev_map event !spans));
  close_out oc

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric a traced run reports, in output order; a layer a
   workload does not enter reports 0. *)
let layer_names =
  [
    "portfolio.plan_s";
    "rewriting.rewrite_s"; "rewriting.steps"; "rewriting.containment_checks";
    "rewriting.index_pruned";
    "eval.cold_s"; "eval.warm_s"; "eval.view_build_s"; "eval.seeks";
    "eval.gallops"; "eval.emitted"; "eval.emit_per_answer";
    "marked.rewrite_s"; "marked.steps"; "marked.cut_steps"; "marked.fuse_steps";
    "marked.reduce_steps"; "marked.dropped_improper";
    "containment.memo_hits"; "containment.memo_misses";
    "containment.memo_hit_ratio"; "containment.splits"; "containment.prescreened";
    "chase.run_s"; "chase.entails_s"; "chase.atoms";
    "saturation.rounds"; "saturation.expanded"; "saturation.generated";
    "saturation.admitted"; "saturation.admit_ratio"; "saturation.round_max_s";
    "homomorphism.searches"; "homomorphism.nodes"; "homomorphism.reg_ops";
    "fact_set.builds"; "fact_set.extends"; "fact_set.delta_atoms";
    "fact_set.posting_probes";
    "arena.bytes"; "arena.spans";
    "pool.busy_s"; "pool.utilization"; "pool.inline_batches";
    "pool.fanout_batches"; "pool.dispatch_overhead_s";
    "guard.peak_heap_mb"; "guard.checkpoints";
    "trace.run_s"; "trace.span_coverage";
  ]

type outcome = {
  setup_s : float;  (** building the inputs: instance, query, theory *)
  run_s : float;  (** the pipeline call *)
  cpu_s : float;  (** CPU seconds of the pipeline call *)
  rss_mb : float;  (** VmHWM right after the pipeline call *)
  check : (unit, string) result;
  sizes : (string * int) list;
  layers : (string * float) list;  (** traced runs only *)
}

let ratio a b = if b > 0. then a /. b else 0.

(* The layer metrics every workload shares, read off the "run" span that
   wraps its pipeline; [specific] adds the workload's own layers. *)
let traced_layers ~jobs ~pool p ~(kernel : Saturation.Stats.t) specific =
  let fi = float_of_int and guard = Option.get p.guard in
  let run_s = span_s "run" and c = counter "run" in
  let covered =
    List.fold_left
      (fun acc s -> if s.parent = "run" then acc +. (s.stop -. s.start) else acc)
      0. !spans
  in
  let hits = c "containment.memo_hits" and misses = c "containment.memo_misses" in
  let t = kernel.Saturation.Stats.totals in
  let a = Arena.stats Arena.global in
  let common =
    [
      ("eval.seeks", c "eval.seeks");
      ("eval.gallops", c "eval.gallops");
      ("eval.emitted", c "eval.emitted");
      ("containment.memo_hits", hits);
      ("containment.memo_misses", misses);
      ("containment.memo_hit_ratio", ratio hits (hits +. misses));
      ("containment.splits", c "containment.splits");
      ("containment.prescreened", c "containment.prescreened");
      ("saturation.rounds", fi kernel.Saturation.Stats.rounds);
      ("saturation.expanded", fi t.Saturation.Stats.expanded);
      ("saturation.generated", fi t.Saturation.Stats.generated);
      ("saturation.admitted", fi t.Saturation.Stats.admitted);
      ( "saturation.admit_ratio",
        ratio (fi t.Saturation.Stats.admitted) (fi t.Saturation.Stats.generated) );
      ( "saturation.round_max_s",
        Array.fold_left
          (fun m (r : Saturation.Stats.round) -> Float.max m r.Saturation.Stats.wall_s)
          0. kernel.Saturation.Stats.per_round );
      ("homomorphism.searches", c "homomorphism.searches");
      ("homomorphism.nodes", c "homomorphism.nodes");
      ("homomorphism.reg_ops", c "homomorphism.reg_ops");
      ("fact_set.builds", c "fact_set.builds");
      ("fact_set.extends", c "fact_set.extends");
      ("fact_set.delta_atoms", c "fact_set.delta_atoms");
      ("fact_set.posting_probes", c "fact_set.posting_probes");
      ("arena.bytes", fi a.Arena.bytes);
      ("arena.spans", fi a.Arena.spans);
      ("pool.busy_s", c "pool.busy_s");
      ("pool.utilization", ratio (c "pool.busy_s") (fi jobs *. run_s));
      ("pool.inline_batches", c "pool.inline_batches");
      ("pool.fanout_batches", c "pool.fanout_batches");
      ("pool.dispatch_overhead_s", Pool.dispatch_overhead_s pool);
      ( "guard.peak_heap_mb",
        fi (Guard.progress guard).Guard.peak_heap_words *. 8. /. 1048576. );
      ("guard.checkpoints", c "guard.checkpoints");
      ("trace.run_s", run_s);
      ("trace.span_coverage", ratio covered run_s);
    ]
  in
  let all = specific @ common in
  List.map
    (fun name -> (name, Option.value (List.assoc_opt name all) ~default:0.))
    layer_names

(* One repetition of a workload: [call probe pool] is the pipeline call,
   timed as the span "run". [Pool.create] spawns no domain; the call pays
   for that on the first batch it fans out. [finish probe pool result]
   runs after the clock and the VmHWM reading, and returns the output
   check and, when traced, the layer metrics. *)
let repetition ~jobs ~traced ~setup_s ~sizes call finish =
  let pool = Pool.create jobs in
  let p = if traced then tracing pool else untraced in
  let r, run_s, cpu_s = timed (fun () -> p.span "run" (fun () -> call p pool)) in
  let rss_mb = peak_rss_mb () in
  let check, layers = finish p pool r in
  Pool.shutdown pool;
  { setup_s; run_s; cpu_s; rss_mb; check; sizes; layers }

let answer_grid ~seed ~jobs ~traced =
  let (g, t, q), setup_s, _ =
    timed (fun () ->
        ( grid_instance ~side:grid_side ~seed,
          Parser.parse_theory ~name:"T_p" t_p_text,
          two_step_query () ))
  in
  let sizes =
    [ ("grid_side", grid_side); ("facts", Fact_set.cardinal g.facts);
      ("answers", grid_side * (grid_side - 2)) ]
  in
  let eval p (rw : Rewriting.Rewrite.result) =
    Eval.ucq_answers_outcome ?guard:p.guard rw.Rewriting.Rewrite.ucq g.facts
  in
  repetition ~jobs ~traced ~setup_s ~sizes
    (fun p pool ->
      let plan =
        p.span ~parent:"run" "portfolio.plan" (fun () ->
            Strategy.plan ~pool ?guard:p.guard t)
      in
      if not traced then
        let a = Strategy.execute ~pool plan t g.facts q in
        ( a.Strategy.tuples,
          (if not a.Strategy.exact then Error "answer: exact = false"
           else if a.Strategy.fell_back || a.Strategy.used <> Strategy.Ucq_rewriting
           then Error "answer: the rewriting plan fell back"
           else Ok ()),
          None )
      else
        (* Strategy.execute's Ucq_rewriting leg, call by call. *)
        let rw =
          p.span ~parent:"run" "rewriting.rewrite" (fun () ->
              Rewriting.Rewrite.rewrite ~pool ?guard:p.guard t q)
        in
        let tuples, exact =
          match p.span ~parent:"run" "eval.cold" (fun () -> eval p rw) with
          | Guard.Complete ts -> (ts, true)
          | Guard.Exhausted { partial; _ } -> (partial, false)
        in
        ( p.span ~parent:"run" "portfolio.normalize" (fun () ->
              Strategy.normalize_tuples tuples),
          (if not exact then Error "answer: exact = false"
           else if rw.Rewriting.Rewrite.outcome <> Rewriting.Rewrite.Complete then
             Error "answer: the rewriting did not complete"
           else Ok ()),
          Some rw ))
    (fun p pool (tuples, status, rw) ->
      let check = Result.bind status (fun () -> check_grid_answers g tuples) in
      match rw with
      | None -> (check, [])
      | Some rw ->
          (* The same call again on the same fact set: the sorted views are
             built. *)
          let warm = p.span "eval.warm" (fun () -> eval p rw) in
          let check =
            match (check, warm) with
            | Ok (), Guard.Complete ts -> check_grid_answers g (Strategy.normalize_tuples ts)
            | Ok (), Guard.Exhausted _ -> Error "answer: the warm evaluation tripped"
            | e, _ -> e
          in
          let fi = float_of_int in
          let cold_s = span_s "eval.cold" and warm_s = span_s "eval.warm" in
          ( check,
            traced_layers ~jobs ~pool p ~kernel:rw.Rewriting.Rewrite.kernel_stats
              [
                ("portfolio.plan_s", span_s "portfolio.plan");
                ("rewriting.rewrite_s", span_s "rewriting.rewrite");
                ("rewriting.steps", fi rw.Rewriting.Rewrite.steps);
                ("rewriting.containment_checks", fi rw.Rewriting.Rewrite.containment_checks);
                ("rewriting.index_pruned", fi rw.Rewriting.Rewrite.index_pruned);
                ("eval.cold_s", cold_s);
                ("eval.warm_s", warm_s);
                ("eval.view_build_s", cold_s -. warm_s);
                ( "eval.emit_per_answer",
                  ratio (counter "eval.cold" "eval.emitted") (fi (List.length tuples)) );
              ] ))

let chase_td ~seed ~jobs ~traced =
  let (inp, t), setup_s, _ =
    timed (fun () -> (td_instance ~seed, Parser.parse_theory ~name:"T_d" t_d_text))
  in
  let sizes = [ ("path", 8); ("depth", td_depth); ("atoms", td_stage_counts.(td_depth)) ] in
  repetition ~jobs ~traced ~setup_s ~sizes
    (fun p pool ->
      let run =
        p.span ~parent:"run" "chase.run" (fun () ->
            Chase.Engine.run ~pool ?guard:p.guard ~max_depth:td_depth ~max_atoms:max_int t
              inp.g8)
      in
      ( run,
        p.span ~parent:"run" "chase.entails" (fun () ->
            Chase.Entailment.entails_run run inp.phi3 [ inp.a0; inp.a8 ]) ))
    (fun p pool (run, verdict) ->
      ( check_chase inp run verdict,
        if not traced then []
        else
          traced_layers ~jobs ~pool p ~kernel:(Chase.Engine.kernel_stats run)
            [
              ("chase.run_s", span_s "chase.run");
              ("chase.entails_s", span_s "chase.entails");
              ("chase.atoms", float_of_int (Fact_set.cardinal (Chase.Engine.result run)));
            ] ))

let marked ~jobs ~traced =
  let phi, setup_s, _ =
    timed (fun () ->
        let _, _, phi = Zoo.phi_r marked_n in
        phi)
  in
  let sizes =
    [ ("n", marked_n); ("query_atoms", Cq.size phi); ("disjuncts", marked_disjuncts) ]
  in
  repetition ~jobs ~traced ~setup_s ~sizes
    (fun p pool ->
      p.span ~parent:"run" "marked.rewrite_td" (fun () ->
          Marked.Process.rewrite_td ~pool ?guard:p.guard phi))
    (fun p pool res ->
      let st = res.Marked.Process.stats and fi = float_of_int in
      ( check_marked res,
        if not traced then []
        else
          traced_layers ~jobs ~pool p ~kernel:res.Marked.Process.kernel_stats
            [
              ("marked.rewrite_s", span_s "marked.rewrite_td");
              ("marked.steps", fi st.Marked.Process.steps);
              ("marked.cut_steps", fi st.Marked.Process.cut_steps);
              ("marked.fuse_steps", fi st.Marked.Process.fuse_steps);
              ("marked.reduce_steps", fi st.Marked.Process.reduce_steps);
              ("marked.dropped_improper", fi st.Marked.Process.dropped_improper);
            ] ))

let run_workload ~workload ~seed ~jobs ~traced =
  match workload with
  | "answer-grid" -> answer_grid ~seed ~jobs ~traced
  | "chase-td" | "chase-td-par" -> chase_td ~seed ~jobs ~traced
  | "marked-e2" | "marked-e2-par" -> marked ~jobs ~traced
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Self-tests of the output checks                                     *)
(* ------------------------------------------------------------------ *)

let selftest () =
  let failures = ref 0 in
  let expect name cond =
    Printf.printf "selftest %-50s %s\n%!" name (if cond then "ok" else "FAILED");
    if not cond then incr failures
  in
  let is_error = function Error _ -> true | Ok () -> false in
  (* A small grid, answered through the same pipeline for two seeds. *)
  let answer seed =
    let g = grid_instance ~side:12 ~seed in
    let plan = Strategy.plan Zoo.t_p in
    (g, (Strategy.execute plan Zoo.t_p g.facts (two_step_query ())).Strategy.tuples)
  in
  let g1, a1 = answer 1 and g2, a2 = answer 2 in
  expect "grid answers pass the check (seed 1)" (check_grid_answers g1 a1 = Ok ());
  expect "grid answers pass the check (seed 2)" (check_grid_answers g2 a2 = Ok ());
  expect "grid answer set is the same for two seeds" (a1 = a2 && List.length a1 = 12 * 10);
  expect "grid answers minus one tuple fail" (is_error (check_grid_answers g1 (List.tl a1)));
  expect "grid answers with one tuple repeated fail"
    (is_error (check_grid_answers g1 (List.hd a1 :: List.tl (List.tl a1) @ [ List.hd a1 ])));
  expect "grid answers with a wrong tuple fail"
    (is_error
       (check_grid_answers g1
          (List.rev ([ List.nth (List.hd a1) 1; List.hd (List.hd a1) ] :: List.tl (List.rev a1)))));
  (* The marked check on phi_R^4, with and without the G^16 disjunct. *)
  let res = Marked.Process.rewrite_td (let _, _, phi = Zoo.phi_r marked_n in phi) in
  let ucq = res.Marked.Process.rewriting in
  expect "marked rewriting of phi_R^4 passes the check" (check_marked res = Ok ());
  let without_path =
    Ucq.of_disjuncts_unchecked
      (List.filter (fun q -> not (is_green_path ~len:(1 lsl marked_n) q)) (Ucq.disjuncts ucq))
  in
  expect "marked rewriting without G^16 fails"
    (is_error (check_marked { res with Marked.Process.rewriting = without_path }));
  (* Still 106 disjuncts, but the G^16 path has one atom reversed. *)
  let path = List.find (is_green_path ~len:(1 lsl marked_n)) (Ucq.disjuncts ucq) in
  let reversed =
    match Cq.atoms path with
    | a :: rest ->
        Cq.make ~free:(Cq.free path) (Atom.make (Atom.rel a) (List.rev (Atom.args a)) :: rest)
    | [] -> path
  in
  let broken_path =
    Ucq.of_disjuncts_unchecked
      (List.map (fun q -> if q == path then reversed else q) (Ucq.disjuncts ucq))
  in
  expect "marked rewriting with the G^16 path broken fails"
    (Ucq.cardinal broken_path = marked_disjuncts
    && is_error (check_marked { res with Marked.Process.rewriting = broken_path }));
  let first_dropped = Ucq.of_disjuncts_unchecked (List.tl (Ucq.disjuncts ucq)) in
  expect "marked rewriting with a disjunct missing fails"
    (is_error (check_marked { res with Marked.Process.rewriting = first_dropped }));
  expect "marked check rejects an incomplete run"
    (is_error (check_marked { res with Marked.Process.complete = false }));
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let json_object fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let workload = Option.value (opt "--workload" args) ~default:"" in
  let seed = int_of_string (Option.value (opt "--seed" args) ~default:"1") in
  let jobs = int_of_string (Option.value (opt "--jobs" args) ~default:"1") in
  match args with
  | "selftest" :: _ -> selftest ()
  | "rep" :: _ ->
      let trace = opt "--trace" args in
      let o = run_workload ~workload ~seed ~jobs ~traced:(trace <> None) in
      Option.iter
        (fun file ->
          write_trace file
            ~run_id:(Printf.sprintf "%s/seed=%d/jobs=%d" workload seed jobs)
            ~origin:(List.fold_left (fun m s -> Float.min m s.start) infinity !spans))
        trace;
      let num l = json_object (List.map (fun (k, v) -> (k, json_float v)) l) in
      print_endline
        (json_object
           [
             ("workload", json_string workload);
             ("seed", string_of_int seed);
             ("jobs", string_of_int jobs);
             ("setup_s", json_float o.setup_s);
             ("run_s", json_float o.run_s);
             ("cpu_s", json_float o.cpu_s);
             ("peak_rss_mb", json_float o.rss_mb);
             ("ok", string_of_bool (o.check = Ok ()));
             ("error", json_string (match o.check with Ok () -> "" | Error e -> e));
             ("sizes", num (List.map (fun (k, v) -> (k, float_of_int v)) o.sizes));
             ("layers", num o.layers);
           ])
  | _ ->
      prerr_endline "usage: worker.exe rep --workload W --seed N [--jobs J] [--trace FILE] | selftest";
      exit 2
