(* The executable-plan evaluation layer: plan compilation, leapfrog
   answers against the Cq reference, UCQ union dedup, the containment
   probe (both of its engines) against the naive matcher, guard
   integration (a tripped join returns a sound partial answer set), and
   the Match trigger rounds. *)

open Logic

let tuples = Alcotest.testable
    (Fmt.list ~sep:Fmt.semi (Fmt.list ~sep:Fmt.comma Term.pp))
    (fun a b -> List.compare (List.compare Term.compare) a b = 0)

let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let e2 a b = Atom.make Theories.Zoo.e2 [ a; b ]
let two_step ~free = Cq.make ~free [ e2 x z; e2 z y ]

let test_plan_compiles () =
  let q =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.e2 [ x; z ]; Atom.make Theories.Zoo.e2 [ z; y ] ]
  in
  let p = Eval.Plan.compile q in
  Alcotest.(check bool) "compiled" true (Eval.Plan.compiled p);
  Alcotest.(check int) "order covers all vars" 3
    (List.length (Eval.Plan.order p));
  (* The order is connectivity-greedy: the shared variable z leads. *)
  (match Eval.Plan.order p with
  | first :: _ -> Alcotest.(check bool) "z first" true (Term.equal first z)
  | [] -> Alcotest.fail "empty order");
  Alcotest.(check bool) "pp smoke" true
    (String.length (Fmt.str "%a" Eval.Plan.pp p) > 0)

let test_answers_match_reference () =
  let grid = Theories.Instances.grid Theories.Zoo.r2 Theories.Zoo.g2
      ~width:9 ~height:7 in
  List.iter
    (fun (_, _, q) ->
      Alcotest.check tuples "grid answers" (Cq.answers q grid)
        (Eval.answers q grid))
    [
      Theories.Zoo.r_path_query 1;
      Theories.Zoo.r_path_query 3;
      Theories.Zoo.g_path_query 2;
    ];
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:3 ~nodes:40
      ~edges:300 in
  let tri =
    Cq.make ~free:[ x; y ]
      [
        Atom.make Theories.Zoo.e2 [ x; y ];
        Atom.make Theories.Zoo.e2 [ y; z ];
        Atom.make Theories.Zoo.e2 [ x; z ];
      ]
  in
  Alcotest.check tuples "triangles" (Cq.answers tri er) (Eval.answers tri er);
  (* Disconnected body: a cross product of components. *)
  let cross =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.r2 [ x; x ]; Atom.make Theories.Zoo.g2 [ y; y ] ]
  in
  let inst =
    Fact_set.of_list
      [
        Atom.make Theories.Zoo.r2 [ Term.const "a"; Term.const "a" ];
        Atom.make Theories.Zoo.r2 [ Term.const "b"; Term.const "b" ];
        Atom.make Theories.Zoo.g2 [ Term.const "c"; Term.const "c" ];
      ]
  in
  Alcotest.check tuples "cross product" (Cq.answers cross inst)
    (Eval.answers cross inst)

let test_holds_and_boolean () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:5 ~nodes:25
      ~edges:120 in
  let q =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.e2 [ x; z ]; Atom.make Theories.Zoo.e2 [ z; y ] ]
  in
  let all = Cq.answers q er in
  List.iter
    (fun tuple ->
      Alcotest.(check bool) "holds on answer" true (Eval.holds q er tuple))
    all;
  Alcotest.(check bool) "holds rejects non-answer"
    (Cq.holds q er [ Term.const "v0"; Term.const "v0" ])
    (Eval.holds q er [ Term.const "v0"; Term.const "v0" ]);
  let b = Cq.make ~free:[] [ Atom.make Theories.Zoo.e2 [ x; x ] ] in
  Alcotest.(check bool) "boolean agrees" (Cq.boolean_holds b er)
    (Eval.boolean_holds b er);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Eval.holds: answer tuple arity mismatch") (fun () ->
      ignore (Eval.holds q er [ Term.const "v0" ]))

let test_ucq_union_dedup () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:11 ~nodes:30
      ~edges:200 in
  (* Overlapping disjuncts: q1's answers are a superset of q2's. *)
  let q1 = Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.e2 [ x; y ] ] in
  let q2 =
    Cq.make ~free:[ x ]
      [ Atom.make Theories.Zoo.e2 [ x; y ]; Atom.make Theories.Zoo.e2 [ y; z ] ]
  in
  let u = Ucq.of_disjuncts_unchecked [ q1; q2 ] in
  let reference =
    List.sort_uniq
      (List.compare Term.compare)
      (Cq.answers q1 er @ Cq.answers q2 er)
  in
  Alcotest.check tuples "union answers" reference (Eval.ucq_answers u er);
  Alcotest.(check bool) "ucq boolean" true (Eval.ucq_boolean_holds u er);
  List.iter
    (fun tuple ->
      Alcotest.(check bool) "ucq holds" true (Eval.ucq_holds u er tuple))
    reference

let test_guard_partial_is_sound () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:17 ~nodes:60
      ~edges:900 in
  let q =
    Cq.make ~free:[ x; y ]
      [ Atom.make Theories.Zoo.e2 [ x; z ]; Atom.make Theories.Zoo.e2 [ z; y ] ]
  in
  let full = Eval.answers q er in
  Alcotest.(check bool) "workload is nontrivial" true
    (List.length full > 40);
  (* One fuel unit per emitted tuple: a tiny budget must trip. *)
  let guard = Guard.create ~fuel:25 () in
  (match Eval.answers_outcome ~guard q er with
  | Guard.Complete _ -> Alcotest.fail "expected a guard trip"
  | Guard.Exhausted { partial; cause; _ } ->
      Alcotest.(check bool) "fuel cause" true (cause = Guard.Fuel);
      Alcotest.(check bool) "partial nonempty" true (partial <> []);
      Alcotest.(check bool) "partial is strict" true
        (List.length partial < List.length full);
      List.iter
        (fun tuple ->
          Alcotest.(check bool) "partial tuple is a real answer" true
            (List.exists (fun t -> List.compare Term.compare t tuple = 0) full))
        partial);
  (* A cancelled guard trips through the seek-counter poll too. *)
  let cancel = Atomic.make true in
  let guard = Guard.create ~cancel () in
  (match Eval.answers_outcome ~guard q er with
  | Guard.Complete _ -> Alcotest.fail "expected cancellation"
  | Guard.Exhausted { partial; _ } ->
      List.iter
        (fun tuple ->
          Alcotest.(check bool) "cancelled partial sound" true
            (List.exists (fun t -> List.compare Term.compare t tuple = 0) full))
        partial)

(* [E(x, v1), E(v1, v2), ..., E(v(n-1), vn)] with answer variable [x];
   [~cycle:true] closes it with [vn = x]. *)
let e_path ?(cycle = false) n =
  let v i =
    if i = 0 || (cycle && i = n) then x else Term.var (Printf.sprintf "v%d" i)
  in
  Cq.make ~free:[ x ]
    (List.init n (fun i -> Atom.make Theories.Zoo.e2 [ v i; v (i + 1) ]))

let test_containment_probe_via_hook () =
  (* Containment runs through the registered probe when eval is linked:
     the register machine below [Eval]'s leapfrog threshold (64 target
     atoms), the leapfrog join at or above it. Both must agree with the
     naive Chandra–Merlin check. *)
  let q1 =
    Cq.make ~free:[ x ]
      [ Atom.make Theories.Zoo.e2 [ x; y ]; Atom.make Theories.Zoo.e2 [ y; z ] ]
  in
  let q2 = Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.e2 [ x; y ] ] in
  let check (a, b) =
    Alcotest.(check bool) "implies = naive" (Naive.implies a b)
      (Containment.implies a b)
  in
  List.iter check [ (q1, q2); (q2, q1); (q1, q1) ];
  (* Targets of 65-70 atoms, true and false verdicts, each reaching the
     leapfrog branch (a directed 66-cycle maps into a 65-cycle only if
     65 divides 66). *)
  let p70 = e_path 70 and p66 = e_path 66 in
  let c65 = e_path ~cycle:true 65 and c66 = e_path ~cycle:true 66 in
  let large = [ (p70, p66); (p66, p70); (c65, p70); (c65, c66) ] in
  Alcotest.(check (list bool)) "large verdicts" [ true; false; true; false ]
    (List.map (fun (a, b) -> Naive.implies a b) large);
  List.iter
    (fun pair ->
      Eval.reset_counters ();
      check pair;
      Alcotest.(check bool) "leapfrog plan ran" true
        ((Eval.counters ()).Eval.plans > 0))
    large

let test_counters_move () =
  Eval.reset_counters ();
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:19 ~nodes:30
      ~edges:250 in
  let q =
    Cq.make ~free:[ x ]
      [ Atom.make Theories.Zoo.e2 [ x; y ]; Atom.make Theories.Zoo.e2 [ y; x ] ]
  in
  let answers = Eval.answers q er in
  let c = Eval.counters () in
  Alcotest.(check bool) "a plan ran" true (c.Eval.plans >= 1);
  Alcotest.(check bool) "seeks counted" true (c.Eval.seeks > 0);
  Alcotest.(check int) "emitted = distinct answers" (List.length answers)
    c.Eval.emitted

(* Four domains evaluate concurrently; every plan adds its counts into
   the shared counters, and none may be lost. Many short runs on a tiny
   instance make the plans finish at the same time often. *)
let test_counters_concurrent () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:23 ~nodes:6
      ~edges:12 in
  let q = two_step ~free:[ x; y ] in
  Eval.reset_counters ();
  let n = List.length (Eval.answers q er) in
  let seeks = (Eval.counters ()).Eval.seeks in
  let reps = 5000 in
  Eval.reset_counters ();
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to reps do
              ignore (Eval.answers q er)
            done))
  in
  List.iter Domain.join domains;
  let c = Eval.counters () in
  Alcotest.(check bool) "nontrivial" true (n > 0);
  Alcotest.(check int) "plans" (4 * reps) c.Eval.plans;
  Alcotest.(check int) "seeks" (4 * reps * seeks) c.Eval.seeks;
  Alcotest.(check int) "emitted = 4 x reps x answers" (4 * reps * n)
    c.Eval.emitted

let naive_ucq_answers u f =
  let answers q =
    List.map
      (fun m -> List.map (fun v -> Term.Map.find v m) (Cq.free q))
      (Naive.all ~flexible:(Cq.var_set q) (Cq.atoms q) (Fact_set.atoms f))
  in
  List.sort_uniq
    (List.compare Term.compare)
    (List.concat_map answers (Ucq.disjuncts u))

(* A cold evaluation reads its views from the atom set: it neither
   builds nor extends the fact set's join index. *)
let test_cold_eval_builds_no_index () =
  let u =
    Ucq.of_disjuncts_unchecked
      [ two_step ~free:[ x; y ]; Cq.make ~free:[ x; y ] [ e2 x y ] ]
  in
  let index_work () =
    let c = Fact_set.counters () in
    (c.Fact_set.builds, c.Fact_set.extends)
  in
  let fresh =
    Fact_set.of_list
      (Fact_set.atoms
         (Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:29 ~nodes:40
            ~edges:300))
  in
  let before = index_work () in
  let answers = Eval.ucq_answers u fresh in
  Alcotest.(check (pair int int)) "no index work (fresh set)" before
    (index_work ());
  Alcotest.(check bool) "fresh set still unindexed" false
    (Fact_set.is_indexed fresh);
  Alcotest.check tuples "fresh set answers = naive" (naive_ucq_answers u fresh)
    answers;
  (* A chase result's last stage is a pending union whose index nothing
     has forced yet. *)
  let succ = Tgd.make ~name:"succ" ~body:[ e2 x y ] ~head:[ e2 y z ] () in
  let _, _, path = Theories.Instances.path Theories.Zoo.e2 4 in
  let chased =
    Chase.Engine.result
      (Chase.Engine.run ~max_depth:5 (Theory.make ~name:"succ" [ succ ]) path)
  in
  let before = index_work () in
  let answers = Eval.ucq_answers u chased in
  Alcotest.(check (pair int int)) "no index work (chase result)" before
    (index_work ());
  Alcotest.check tuples "chase result answers = naive"
    (naive_ucq_answers u chased) answers

(* A projection whose join rows repeat each answer many times: the
   emission buffer keeps one row per answer, draws fuel per distinct
   tuple, and a fuel trip flushes a sorted, distinct, sound prefix. *)
let test_emission_buffer () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:31 ~nodes:200
      ~edges:2000 in
  let q = two_step ~free:[ x ] in
  let sorted_distinct ts =
    let rec go = function
      | a :: (b :: _ as rest) -> List.compare Term.compare a b < 0 && go rest
      | _ -> true
    in
    go ts
  in
  Eval.reset_counters ();
  let full = Eval.answers q er in
  Alcotest.check tuples "projection = Cq.answers" (Cq.answers q er) full;
  Alcotest.(check int) "emitted = distinct answers" (List.length full)
    (Eval.counters ()).Eval.emitted;
  let guard = Guard.create ~fuel:5 () in
  match Eval.answers_outcome ~guard q er with
  | Guard.Complete _ -> Alcotest.fail "expected a fuel trip"
  | Guard.Exhausted { partial; cause; _ } ->
      Alcotest.(check bool) "fuel cause" true (cause = Guard.Fuel);
      Alcotest.(check bool) "partial has the paid tuples" true
        (List.length partial > 5);
      Alcotest.(check bool) "partial is strict" true
        (List.length partial < List.length full);
      Alcotest.(check bool) "partial sorted and distinct" true
        (sorted_distinct partial);
      List.iter
        (fun tuple ->
          Alcotest.(check bool) "partial tuple is a real answer" true
            (List.exists (fun t -> List.compare Term.compare t tuple = 0) full))
        partial

(* Disjuncts that overlap heavily: the k-way merge of their sorted
   answer lists is the sorted union, for every prefix of the list. *)
let test_ucq_merge () =
  let er = Theories.Instances.erdos_renyi Theories.Zoo.e2 ~seed:37 ~nodes:25
      ~edges:150 in
  let w = Term.var "w" in
  let ds =
    List.map
      (Cq.make ~free:[ x; y ])
      [
        [ e2 x y ];
        [ e2 x y; e2 y z ];
        [ e2 x z; e2 z y ];
        [ e2 w x; e2 x y ];
        [ e2 y x ];
      ]
  in
  let union ds =
    List.sort_uniq
      (List.compare Term.compare)
      (List.concat_map (fun q -> Cq.answers q er) ds)
  in
  Alcotest.(check bool) "disjuncts overlap" true
    (List.length (union ds)
    < List.fold_left (fun n q -> n + List.length (Cq.answers q er)) 0 ds);
  for k = 0 to List.length ds do
    let prefix = List.filteri (fun i _ -> i < k) ds in
    Alcotest.check tuples
      (Printf.sprintf "%d-disjunct union = sorted union" k)
      (union prefix)
      (Eval.ucq_answers (Ucq.of_disjuncts_unchecked prefix) er)
  done

let test_match_trigger_rounds () =
  (* Eval.Match must reproduce the engine's semi-naive enumeration: the
     chase (which now routes through it) still saturates correctly. *)
  let rule =
    Tgd.make ~name:"succ"
      ~body:[ Atom.make Theories.Zoo.e2 [ x; y ] ]
      ~head:[ Atom.make Theories.Zoo.e2 [ y; z ] ]
      ()
  in
  let parts = Eval.Match.rule_parts rule ~old_is_empty:true in
  Alcotest.(check int) "one delta part per body atom" 1 (List.length parts);
  let _, _, d = Theories.Instances.path Theories.Zoo.e2 3 in
  let seen = ref 0 in
  List.iter
    (fun part ->
      Eval.Match.part_triggers rule part ~old_facts:(Fact_set.of_list [])
        ~delta:d ~full:d ~old_dom_list:[] ~new_dom_list:[] ~full_dom_list:[]
        (fun _ -> incr seen))
    parts;
  Alcotest.(check int) "one trigger per fact" 3 !seen

let () =
  Alcotest.run "eval"
    [
      ( "plans",
        [
          Alcotest.test_case "compile" `Quick test_plan_compiles;
          Alcotest.test_case "answers = reference" `Quick
            test_answers_match_reference;
          Alcotest.test_case "holds / boolean" `Quick test_holds_and_boolean;
          Alcotest.test_case "ucq union dedup" `Quick test_ucq_union_dedup;
          Alcotest.test_case "ucq k-way merge" `Quick test_ucq_merge;
        ] );
      ( "guard",
        [
          Alcotest.test_case "partial answers are sound" `Quick
            test_guard_partial_is_sound;
          Alcotest.test_case "emission buffer" `Quick test_emission_buffer;
        ] );
      ( "integration",
        [
          Alcotest.test_case "containment probe" `Quick
            test_containment_probe_via_hook;
          Alcotest.test_case "counters" `Quick test_counters_move;
          Alcotest.test_case "match rounds" `Quick test_match_trigger_rounds;
          Alcotest.test_case "concurrent counters" `Quick
            test_counters_concurrent;
          Alcotest.test_case "cold eval builds no index" `Quick
            test_cold_eval_builds_no_index;
        ] );
    ]
