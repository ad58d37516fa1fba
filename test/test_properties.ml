(* Property-based differential tests.

   Random single-head TGD theories, instances, and queries are drawn from
   int-encoded generators (plain tuples and lists, so QCheck's built-in
   shrinkers minimize counterexamples), then the engines are played
   against naive references and against each other:

   - the naive matcher of [Naive] (backtracking over atom lists, no
     index, no [Homomorphism]) against the register machine, the
     leapfrog plan layer and [Cq]'s evaluators;
   - a ~30-line naive reference chase (textbook fixpoint over the naive
     matcher, no semi-naive deltas, no provenance) against
     [Chase.Engine.run], on random and zoo theories;
   - a naive reference rewriting (a queue, a store minimized by the naive
     Chandra–Merlin check) against the saturation kernel;
   - the sequential engines against their [lib/parallel] counterparts at
     several domain counts (stages must be bit-identical, rewritings
     UCQ-equivalent);
   - rewriting-based answering against chase-based answering (the
     Theorem 1 contract), on random theories and on zoo-seeded instances.

   FRONTIER_QCHECK_COUNT scales the number of cases per property (default
   100; CI sets a smaller value to keep the suite fast). *)

open Logic

let count =
  match Sys.getenv_opt "FRONTIER_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 100)
  | None -> 100

(* Long-lived pools shared by all properties (domains are expensive). *)
let pool2 = Parallel.Pool.create 2
let pool3 = Parallel.Pool.create 3
let pool4 = Parallel.Pool.create 4

(* ------------------------------------------------------------------ *)
(* Generators: everything is encoded as ints so shrinking works        *)
(* ------------------------------------------------------------------ *)

let e = Symbol.make "E" ~arity:2
let r = Symbol.make "R" ~arity:2
let p = Symbol.make "P" ~arity:1
let const i = Term.const (Printf.sprintf "c%d" i)
let body_var i = Term.var (Printf.sprintf "x%d" (i mod 4))

let head_var i =
  (* 0..3 pick body variables, 4..5 existential ones. *)
  match i mod 6 with
  | j when j < 4 -> body_var j
  | j -> Term.var (Printf.sprintf "w%d" (j - 4))

(* An atom is (rel, v1, v2); rel mod 3 picks E/R/P, P ignores v2. Any
   int triple decodes to a well-formed atom, so shrunk values stay valid. *)
let decode_atom var (rel, a, b) =
  match rel mod 3 with
  | 0 -> Atom.make e [ var a; var b ]
  | 1 -> Atom.make r [ var a; var b ]
  | _ -> Atom.make p [ var a ]

let decode_rule i (body, head) =
  Tgd.make
    ~name:(Printf.sprintf "g%d" i)
    ~body:(List.map (decode_atom body_var) body)
    ~head:[ decode_atom head_var head ]
    ()

let decode_theory rules =
  Theory.make ~name:"gen" (List.mapi decode_rule rules)

let decode_instance (e_edges, r_edges, p_nodes) =
  Fact_set.of_list
    (List.map (fun (i, j) -> Atom.make e [ const i; const j ]) e_edges
    @ List.map (fun (i, j) -> Atom.make r [ const i; const j ]) r_edges
    @ List.map (fun i -> Atom.make p [ const i ]) p_nodes)

let decode_query atoms =
  (* Boolean query over a 3-variable pool (shared variables make joins). *)
  Cq.make ~free:[]
    (List.map (decode_atom (fun i -> body_var (i mod 3))) atoms)

let atom_arb = QCheck.(triple (int_bound 2) (int_bound 5) (int_bound 5))

let theory_arb =
  QCheck.(
    list_of_size Gen.(1 -- 4)
      (pair (list_of_size Gen.(1 -- 2) atom_arb) atom_arb))

let instance_arb =
  QCheck.(
    triple
      (list_of_size Gen.(0 -- 6) (pair (int_bound 4) (int_bound 4)))
      (list_of_size Gen.(0 -- 3) (pair (int_bound 4) (int_bound 4)))
      (list_of_size Gen.(0 -- 3) (int_bound 4)))

let query_arb = QCheck.(list_of_size Gen.(1 -- 2) atom_arb)

(* ------------------------------------------------------------------ *)
(* The naive reference chase: a direct reading of Definition 6         *)
(* ------------------------------------------------------------------ *)

(* Every stage recomputes every trigger over the whole structure with
   the naive matcher — no deltas, no indexes to get wrong. Returns the
   stages (element i is Ch_i) and whether a fixpoint was reached within
   [max_stages]. *)
let naive_chase ~max_stages theory d =
  let rec go current n acc =
    if n = 0 then (List.rev acc, false)
    else begin
      let additions = ref [] in
      let facts = Fact_set.atoms current in
      List.iter
        (fun rule ->
          Naive.iter ~domain_vars:(Tgd.dom_vars rule)
            ~flexible:(Term.Set.of_list (Tgd.body_vars rule))
            (Tgd.body rule) facts (fun sigma ->
              List.iter
                (fun a ->
                  if not (Fact_set.mem a current) then
                    additions := a :: !additions)
                (Tgd.apply rule sigma)))
        (Theory.rules theory);
      if !additions = [] then (List.rev acc, true)
      else
        let next = Fact_set.union current (Fact_set.of_list !additions) in
        go next (n - 1) (next :: acc)
    end
  in
  let stages, saturated = go d max_stages [ d ] in
  (stages, saturated)

let max_depth = 3
let max_atoms = 30_000

let prop_engine_matches_naive_reference =
  QCheck.Test.make ~count
    ~name:"semi-naive engine stages = naive reference chase stages"
    QCheck.(pair theory_arb instance_arb)
    (fun (trules, inst) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let run = Chase.Engine.run ~max_depth ~max_atoms theory d in
      QCheck.assume (Chase.Engine.interrupted run <> Some Guard.Fuel);
      let stages, naive_saturated =
        naive_chase ~max_stages:max_depth theory d
      in
      List.length stages = Chase.Engine.depth run + 1
      && Chase.Engine.saturated run = naive_saturated
      && List.for_all2 Fact_set.equal stages
           (List.init (Chase.Engine.depth run + 1) (Chase.Engine.stage run)))

(* ------------------------------------------------------------------ *)
(* Parallel vs sequential: the determinism contracts                   *)
(* ------------------------------------------------------------------ *)

let same_derivations run_a run_b atom =
  let names ders = List.map (fun (rule, _) -> Tgd.name rule) ders in
  names (Chase.Engine.derivations run_a atom)
  = names (Chase.Engine.derivations run_b atom)

let prop_parallel_chase_deterministic =
  QCheck.Test.make ~count
    ~name:"chase at -j1/-j2/-j4: identical stages, flags, provenance"
    QCheck.(pair theory_arb instance_arb)
    (fun (trules, inst) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let seq = Chase.Engine.run ~max_depth ~max_atoms theory d in
      List.for_all
        (fun pool ->
          let par = Chase.Engine.run ~pool ~max_depth ~max_atoms theory d in
          Chase.Engine.depth par = Chase.Engine.depth seq
          && Chase.Engine.saturated par = Chase.Engine.saturated seq
          && (Chase.Engine.interrupted par = Some Guard.Fuel)
             = (Chase.Engine.interrupted seq = Some Guard.Fuel)
          && List.for_all
               (fun i ->
                 Fact_set.equal
                   (Chase.Engine.stage seq i)
                   (Chase.Engine.stage par i))
               (List.init (Chase.Engine.depth seq + 1) Fun.id)
          && List.for_all (same_derivations seq par)
               (Fact_set.atoms (Chase.Engine.result seq)))
        [ pool2; pool4 ])

let prop_parallel_oblivious_deterministic =
  QCheck.Test.make ~count
    ~name:"oblivious chase with a pool = without"
    QCheck.(pair theory_arb instance_arb)
    (fun (trules, inst) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let seq =
        Chase.Variants.run_oblivious ~max_depth ~max_atoms theory d
      in
      let par =
        Chase.Variants.run_oblivious ~pool:pool3 ~max_depth ~max_atoms theory
          d
      in
      seq.Chase.Variants.steps = par.Chase.Variants.steps
      && seq.Chase.Variants.saturated = par.Chase.Variants.saturated
      && Fact_set.equal seq.Chase.Variants.facts par.Chase.Variants.facts)

let rewrite_budget =
  {
    Rewriting.Rewrite.max_disjuncts = 40;
    max_atoms_per_disjunct = 12;
    max_steps = 150;
  }

let prop_parallel_rewriting_equivalent =
  QCheck.Test.make ~count
    ~name:"rewriting at -j1 and -j3: UCQ-equivalent when both complete"
    QCheck.(pair theory_arb query_arb)
    (fun (trules, qatoms) ->
      let theory = decode_theory trules in
      let q = decode_query qatoms in
      let seq = Rewriting.Rewrite.rewrite ~budget:rewrite_budget theory q in
      let par =
        Rewriting.Rewrite.rewrite ~pool:pool3 ~budget:rewrite_budget theory q
      in
      match
        (seq.Rewriting.Rewrite.outcome, par.Rewriting.Rewrite.outcome)
      with
      | Rewriting.Rewrite.Complete, Rewriting.Rewrite.Complete ->
          Ucq.equivalent seq.Rewriting.Rewrite.ucq par.Rewriting.Rewrite.ucq
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* The matchers against the naive matcher                              *)
(* ------------------------------------------------------------------ *)

let sorted_mappings ms = List.sort (Term.Map.compare Term.compare) ms

let prop_hom_matches_naive =
  QCheck.Test.make ~count
    ~name:"Cq.boolean_holds: register machine = naive matcher"
    QCheck.(pair query_arb instance_arb)
    (fun (qatoms, inst) ->
      let q = decode_query qatoms in
      let d = decode_instance inst in
      Bool.equal (Cq.boolean_holds q d)
        (Naive.exists ~flexible:(Cq.var_set q) (Cq.atoms q) (Fact_set.atoms d)))

let prop_prefer_keeps_mappings =
  (* [~prefer] reorders each search node's candidate facts; it must
     neither drop nor duplicate a mapping. The rank is an arbitrary
     hash-derived bucket, salted per case. On a one-atom pattern the
     enumeration order is the candidate order, so the ranks of the
     images must also come out non-decreasing. *)
  QCheck.Test.make ~count
    ~name:"Homomorphism.iter: ~prefer = no prefer = naive matcher (mapping sets)"
    QCheck.(triple query_arb instance_arb small_nat)
    (fun (qatoms, inst, salt) ->
      let q = decode_query qatoms in
      let d = decode_instance inst in
      let flexible = Cq.var_set q in
      let pattern = Cq.atoms q in
      let rank a = (Atom.hash a lxor salt) land 3 in
      let homs ?prefer () =
        let acc = ref [] in
        Homomorphism.iter
          (Homomorphism.make ?prefer ~flexible ~pattern ~target:d ())
          (fun m -> acc := m :: !acc);
        List.rev !acc
      in
      let preferred = homs ~prefer:rank () in
      let naive = Naive.all ~flexible pattern (Fact_set.atoms d) in
      let eq = List.equal (Term.Map.equal Term.equal) in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      eq (sorted_mappings preferred) naive
      && eq (sorted_mappings (homs ())) naive
      &&
      match pattern with
      | [ a ] ->
          non_decreasing
            (List.map
               (fun m -> rank (Homomorphism.apply m ~flexible a))
               preferred)
      | _ -> true)

(* Zoo-seeded: every closed zoo theory chased on random instances drawn
   from its own signature, against the naive reference chase,
   sequential and -j4. *)
let zoo_theories =
  Theories.Zoo.
    [
      t_a; t_p; t_loopcut; t_sticky; t_nonbdd; t_c; t_d; t_d_noloop;
      t_spouse; t_ex66;
    ]

let theory_signature theory =
  List.sort_uniq Symbol.compare
    (List.concat_map
       (fun r -> List.map Atom.rel (Tgd.body r @ Tgd.head r))
       (Theory.rules theory))

let decode_zoo_instance theory triples =
  let sig_ = Array.of_list (theory_signature theory) in
  Fact_set.of_list
    (List.map
       (fun (s, a, b) ->
         let rel = sig_.(s mod Array.length sig_) in
         let args =
           List.init (Symbol.arity rel) (fun i ->
               const ((if i = 0 then a else b) mod 5))
         in
         Atom.make rel args)
       triples)

let prop_zoo_chase_matches_naive_reference =
  QCheck.Test.make ~count
    ~name:"zoo theories: chase = naive reference chase on random instances (j1, j4)"
    QCheck.(
      pair (int_bound 1000)
        (list_of_size Gen.(1 -- 6)
           (triple (int_bound 20) (int_bound 4) (int_bound 4))))
    (fun (pick, triples) ->
      let theory = List.nth zoo_theories (pick mod List.length zoo_theories) in
      let d = decode_zoo_instance theory triples in
      let stages, naive_saturated =
        naive_chase ~max_stages:max_depth theory d
      in
      List.for_all
        (fun pool ->
          let run = Chase.Engine.run ?pool ~max_depth ~max_atoms theory d in
          QCheck.assume (Chase.Engine.interrupted run <> Some Guard.Fuel);
          List.length stages = Chase.Engine.depth run + 1
          && Chase.Engine.saturated run = naive_saturated
          && List.for_all2 Fact_set.equal stages
               (List.init (Chase.Engine.depth run + 1) (Chase.Engine.stage run)))
        [ None; Some pool4 ])

(* ------------------------------------------------------------------ *)
(* The naive reference rewriting: a direct reading of Theorem 1        *)
(* ------------------------------------------------------------------ *)

(* One queue pop per step; the store is a plain list kept minimal by
   [add_minimal] over the naive Chandra–Merlin check ([Naive.implies]) —
   no saturation kernel, no [Containment], no canon-id dedup, no
   liveness probe, no budgets beyond the pop count. Subsumed entries are expanded anyway (harmless:
   their rewritings are covered too). Returns [None] when [max_steps]
   pops did not drain the queue, or when a rewriting grew past
   [max_atoms] — the kernel stops with [Size_budget] on the same
   condition, and the piece-unifier step fans out exponentially in the
   size of the query it rewrites. *)
let naive_rewrite ~max_steps ~max_atoms theory q =
  let compiled, aux = Rewriting.Single_head.compile theory in
  let queue = Queue.create () in
  let store = ref [] in
  (* Keep [q'] unless a stored disjunct covers it; drop those it covers. *)
  let add_minimal q' =
    match Naive.add_minimal !store q' with
    | None -> false
    | Some kept ->
        store := kept;
        true
  in
  let exception Out_of_budget in
  let push q' =
    if Cq.size q' > max_atoms then raise Out_of_budget;
    if add_minimal q' then Queue.add q' queue
  in
  let steps = ref 0 in
  match
    push (Naive.core q);
    while not (Queue.is_empty queue) do
      if !steps >= max_steps then raise Out_of_budget;
      incr steps;
      let cur = Queue.pop queue in
      List.iter push (Rewriting.Piece_unifier.one_step_theory cur compiled)
    done
  with
  | () ->
      Some
        (Ucq.of_disjuncts_unchecked
           (List.filter
              (fun d -> not (Rewriting.Single_head.mentions_aux aux d))
              (List.rev !store)))
  | exception Out_of_budget -> None

let prop_kernel_rewriting_matches_naive_reference =
  (* The kernel-based saturation (both the size-1 pool's one-pop rounds
     and the -j4 batch-synchronous sweeps) must land on a UCQ equivalent
     to the naive queue/add_minimal reference whenever both complete. *)
  QCheck.Test.make ~count
    ~name:"kernel rewriting = naive queue/add_minimal reference (j1, j4)"
    QCheck.(pair theory_arb query_arb)
    (fun (trules, qatoms) ->
      let theory = decode_theory trules in
      let q = decode_query qatoms in
      match
        naive_rewrite ~max_steps:150
          ~max_atoms:rewrite_budget.Rewriting.Rewrite.max_atoms_per_disjunct
          theory q
      with
      | None -> true
      | Some reference ->
          List.for_all
            (fun pool ->
              let r =
                Rewriting.Rewrite.rewrite ?pool ~budget:rewrite_budget theory
                  q
              in
              match r.Rewriting.Rewrite.outcome with
              | Rewriting.Rewrite.Complete ->
                  Ucq.equivalent reference r.Rewriting.Rewrite.ucq
              | _ -> true)
            [ None; Some pool4 ])

(* ------------------------------------------------------------------ *)
(* Subsumption index & containment vs the naive references           *)
(* ------------------------------------------------------------------ *)

(* CQs with 0-2 answer variables over the x0..x3 pool; the random mix
   naturally produces connected single-component bodies, disconnected
   bodies (distinct components through P/E/R atoms over disjoint
   variables), and ground-ish corner cases. *)
let decode_cq (atoms_enc, f0, f1) =
  let atoms = List.map (decode_atom body_var) atoms_enc in
  let vars = Term.Set.of_list (List.concat_map Atom.vars atoms) in
  let free =
    List.filter
      (fun v -> Term.Set.mem v vars)
      (List.concat
         [
           (if f0 then [ body_var 0 ] else []);
           (if f1 then [ body_var 1 ] else []);
         ])
  in
  Cq.make ~free atoms

let cq_arb =
  QCheck.(triple (list_of_size Gen.(1 -- 4) atom_arb) bool bool)

let prop_indexed_store_matches_reference =
  (* The indexed UCQ store must reproduce the reference minimization
     *exactly* — same disjuncts in the same order, not just an
     equivalent set — both through the batch [of_list] and through
     incremental [add_minimal] chains. The reference is the plain list
     fold over the naive Chandra–Merlin check, in [q :: kept] order. *)
  QCheck.Test.make ~count
    ~name:"Ucq store: indexed of_list/add_minimal = unindexed reference"
    QCheck.(list_of_size Gen.(0 -- 8) cq_arb)
    (fun encs ->
      let qs = List.map decode_cq encs in
      let reference =
        List.fold_left
          (fun kept q -> Option.value ~default:kept (Naive.add_minimal kept q))
          [] qs
      in
      let incremental =
        List.fold_left (fun u q -> fst (Ucq.add_minimal u q)) Ucq.empty qs
      in
      let same u =
        Ucq.cardinal u = List.length reference
        && List.for_all2 ( == ) (Ucq.disjuncts u) reference
      in
      same (Ucq.of_list qs) && same incremental)

let prop_implies_matches_naive =
  (* The one containment search (signature prescreen, free-arity check,
     register-machine homomorphism search) against the naive
     Chandra–Merlin check, in both directions and reflexively. *)
  QCheck.Test.make ~count
    ~name:"Containment.implies = Naive.implies, both directions"
    QCheck.(pair cq_arb cq_arb)
    (fun (enc1, enc2) ->
      let q1 = decode_cq enc1 and q2 = decode_cq enc2 in
      List.for_all
        (fun (a, b) -> Containment.implies a b = Naive.implies a b)
        [ (q1, q2); (q2, q1); (q1, q1) ])

(* [q] with its variables renamed apart, the fresh names interned in
   [Cq.vars q] order rotated by [shift]. [Cq.make] sorts a body by the
   intern ids of its terms, so the rotation permutes the copy's atoms
   relative to [q]'s. *)
let cq_copies = ref 0

let renamed_cq shift q =
  let vars = Cq.vars q in
  let k = shift mod List.length vars in
  let rotated =
    List.filteri (fun i _ -> i >= k) vars @ List.filteri (fun i _ -> i < k) vars
  in
  incr cq_copies;
  let tag = !cq_copies in
  let fresh =
    List.map (fun v -> (v, Term.var (Fmt.str "%a'%d" Term.pp v tag))) rotated
  in
  let rename t =
    match List.find_opt (fun (v, _) -> Term.equal v t) fresh with
    | Some (_, v') -> v'
    | None -> t
  in
  Cq.make
    ~free:(List.map rename (Cq.free q))
    (List.map (Atom.map_args rename) (Cq.atoms q))

(* A disjoint union of directed E-cycles of the given lengths. Every
   variable has in- and out-degree 1, so unions of equal total length
   agree on size, variable count, WL colors and [iso_key]; they are
   isomorphic iff their length multisets agree, and one maps into the
   other whenever each of its cycle lengths is a multiple of one there. *)
let cycles_cq lengths =
  let var i = Term.var (Printf.sprintf "y%d" i) in
  let _, atoms =
    List.fold_left
      (fun (base, acc) len ->
        ( base + len,
          acc
          @ List.init len (fun i ->
                Atom.make e [ var (base + i); var (base + ((i + 1) mod len)) ])
        ))
      (0, []) lengths
  in
  Cq.make ~free:[] atoms

(* Cut [total] into cycle lengths of 1-6 read off [cuts]. *)
let rec partition total cuts =
  if total = 0 then []
  else
    match cuts with
    | [] -> [ total ]
    | c :: cs ->
        let len = min total (1 + (c mod 6)) in
        len :: partition (total - len) cs

let prop_isomorphic_matches_naive =
  (* Isomorphism is one injective search behind WL and hom-feasibility
     prescreens; the naive reference enumerates homomorphisms and keeps
     bijections of variables. Random pairs are mostly non-isomorphic, so
     each case also checks a renamed copy with permuted atoms
     (isomorphic by construction), and two cycle unions of equal total
     length — pairs the prescreens cannot separate, where only the
     injectivity of the search decides. *)
  QCheck.Test.make ~count
    ~name:"Containment.isomorphic = Naive.isomorphic"
    QCheck.(
      quad cq_arb cq_arb small_nat
        (pair
           (list_of_size Gen.(1 -- 3) (int_range 1 6))
           (list_of_size Gen.(0 -- 4) small_nat)))
    (fun (enc1, enc2, shift, (lengths, cuts)) ->
      let q1 = decode_cq enc1 and q2 = decode_cq enc2 in
      let copy = renamed_cq shift q1 in
      let c1 = cycles_cq lengths in
      let c2 = cycles_cq (partition (List.fold_left ( + ) 0 lengths) cuts) in
      let agree a b = Containment.isomorphic a b = Naive.isomorphic a b in
      Naive.isomorphic q1 copy && agree q1 copy && agree copy q1
      && agree q1 q2 && agree q2 q1 && agree c1 c2 && agree c2 c1)

(* ------------------------------------------------------------------ *)
(* Theorem 1: answering via rewriting = answering via the chase        *)
(* ------------------------------------------------------------------ *)

let prop_rewriting_answers_like_chase =
  QCheck.Test.make ~count
    ~name:"boolean query: D |= rew(q) iff Ch(T,D) |= q (Theorem 1)"
    QCheck.(triple theory_arb instance_arb query_arb)
    (fun (trules, inst, qatoms) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let q = decode_query qatoms in
      let rew = Rewriting.Rewrite.rewrite ~budget:rewrite_budget theory q in
      match rew.Rewriting.Rewrite.outcome with
      | Rewriting.Rewrite.Complete ->
          let run = Chase.Engine.run ~max_depth:6 ~max_atoms theory d in
          (* Only a saturated chase decides certain answers exactly. *)
          QCheck.assume (Chase.Engine.saturated run);
          Bool.equal
            (Ucq.boolean_holds rew.Rewriting.Rewrite.ucq d)
            (Cq.boolean_holds q (Chase.Engine.result run))
      | _ -> true)

let prop_zoo_answering_agreement =
  (* Zoo-seeded: T_a over random Human courts, the mother query. The
     full answering pipelines must agree (and the parallel one with them). *)
  QCheck.Test.make ~count
    ~name:"T_a certain answers: chase pipeline = rewriting pipeline"
    QCheck.(list_of_size Gen.(1 -- 6) (int_bound 9))
    (fun people ->
      let d =
        Fact_set.of_list
          (List.map
             (fun i ->
               Atom.make Theories.Zoo.person
                 [ Term.const (Printf.sprintf "p%d" i) ])
             people)
      in
      let x = Term.var "x" and m = Term.var "m" in
      let q =
        Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.mother [ x; m ] ]
      in
      let via_chase =
        Frontier.certain_answers ~max_depth:3 Theories.Zoo.t_a d q
      in
      let via_rewriting =
        Frontier.answer_via_rewriting Theories.Zoo.t_a d q
      in
      let via_rewriting_par =
        Frontier.answer_via_rewriting ~pool:pool2 Theories.Zoo.t_a d q
      in
      let sort = List.sort (List.compare Term.compare) in
      match (via_rewriting, via_rewriting_par) with
      | Some a, Some b ->
          sort a = sort (via_chase : Term.t list list) && sort a = sort b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The portfolio selector vs the engines it routes between             *)
(* ------------------------------------------------------------------ *)

let portfolio_budget = rewrite_budget

let prop_portfolio_agrees_with_chase =
  (* Whatever strategy [Portfolio.plan] picks on a random theory, the
     answers [execute] marks exact must be exactly the chase's certain
     answers whenever the chase saturates — at -j1 and -j4. *)
  QCheck.Test.make ~count
    ~name:"portfolio execute = saturated chase certain answers (j1, j4)"
    QCheck.(triple theory_arb instance_arb query_arb)
    (fun (trules, inst, qatoms) ->
      let theory = decode_theory trules in
      let d = decode_instance inst in
      let q = decode_query qatoms in
      let plan = Portfolio.plan theory in
      let reference, ref_exact, _ =
        Portfolio.Strategy.chase_arm ~max_depth:6 ~max_atoms theory d q
      in
      List.for_all
        (fun pool ->
          let a =
            Portfolio.execute ?pool ~budget:portfolio_budget ~max_depth:6
              ~max_atoms plan theory d q
          in
          if a.Portfolio.Strategy.exact && ref_exact then
            Portfolio.Strategy.equal_answers a.Portfolio.Strategy.tuples
              reference
          else if ref_exact then
            (* Inexact answers are still sound: a subset of the certain
               answers the saturated chase computed. *)
            List.for_all
              (fun tuple -> List.exists (( = ) tuple) reference)
              a.Portfolio.Strategy.tuples
          else true)
        [ None; Some pool4 ])

let prop_portfolio_agrees_on_zoo_instances =
  (* Zoo-seeded: the portfolio routes T_a to rewriting; its answers must
     match the chase pipeline on random Human courts. *)
  QCheck.Test.make ~count
    ~name:"portfolio on T_a = chase pipeline on random instances"
    QCheck.(list_of_size Gen.(1 -- 6) (int_bound 9))
    (fun people ->
      let d =
        Fact_set.of_list
          (List.map
             (fun i ->
               Atom.make Theories.Zoo.human
                 [ Term.const (Printf.sprintf "h%d" i) ])
             people)
      in
      let x = Term.var "x" and m = Term.var "m" in
      let q =
        Cq.make ~free:[ x ] [ Atom.make Theories.Zoo.mother [ x; m ] ]
      in
      let plan = Portfolio.plan Theories.Zoo.t_a in
      let a = Portfolio.execute plan Theories.Zoo.t_a d q in
      let via_chase =
        Portfolio.Strategy.normalize_tuples
          (Frontier.certain_answers ~max_depth:3 Theories.Zoo.t_a d q)
      in
      a.Portfolio.Strategy.exact
      && a.Portfolio.Strategy.used = Portfolio.Ucq_rewriting
      && Portfolio.Strategy.equal_answers a.Portfolio.Strategy.tuples
           via_chase)

(* ------------------------------------------------------------------ *)
(* Eval: the plan layer against the naive matcher                      *)
(* ------------------------------------------------------------------ *)

(* Open queries: the second coordinate picks how many of the variables
   actually used become answer variables (0 = boolean). *)
let decode_open_query (atoms, nfree) =
  let atoms = List.map (decode_atom (fun i -> body_var (i mod 3))) atoms in
  let used =
    List.sort_uniq Term.compare
      (List.concat_map
         (fun a -> List.filter Term.is_var (Atom.args a))
         atoms)
  in
  let free =
    List.filteri (fun i _ -> i < nfree mod (List.length used + 1)) used
  in
  Cq.make ~free atoms

let open_query_arb =
  QCheck.(pair (list_of_size Gen.(1 -- 3) atom_arb) (int_bound 3))

(* Deterministic generator-built instances shared across cases: the
   seeds the eval acceptance criteria pin (1, 7, 42). *)
let eval_seed_instances =
  List.map
    (fun seed ->
      Fact_set.union
        (Theories.Instances.erdos_renyi e ~seed ~nodes:6 ~edges:14)
        (Theories.Instances.erdos_renyi r ~seed:(seed + 100) ~nodes:6
           ~edges:7))
    [ 1; 7; 42 ]

let equal_tuple_lists a b =
  List.compare (List.compare Term.compare) a b = 0

(* The distinct answer tuples of [q] over [d], by the naive matcher,
   sorted as [Cq.answers] sorts them. *)
let naive_answers q d =
  List.sort_uniq (List.compare Term.compare)
    (List.map
       (fun m -> List.map (fun v -> Term.Map.find v m) (Cq.free q))
       (Naive.all ~flexible:(Cq.var_set q) (Cq.atoms q) (Fact_set.atoms d)))

let prop_eval_answers_match_naive =
  (* The core differential: Eval.answers through a leapfrog plan, the
     naive matcher and Cq.answers (the register machine) must produce
     identical tuple lists — on random instances and on the pinned
     generator seeds. *)
  QCheck.Test.make ~count
    ~name:"Eval.answers: leapfrog = naive matcher = Cq.answers"
    QCheck.(pair open_query_arb instance_arb)
    (fun (qenc, inst) ->
      let q = decode_open_query qenc in
      List.for_all
        (fun d ->
          let lf = Eval.answers q d in
          equal_tuple_lists lf (naive_answers q d)
          && equal_tuple_lists lf (Cq.answers q d))
        (decode_instance inst :: eval_seed_instances))

let prop_eval_ucq_matches_naive =
  (* Union evaluation with cross-disjunct dedup against the naive union.
     Every disjunct is anchored on E(x0, x1) so the free slot is shared
     and the disjuncts genuinely overlap. *)
  QCheck.Test.make ~count
    ~name:"Eval.ucq_answers: plan union = naive matcher union"
    QCheck.(triple query_arb query_arb instance_arb)
    (fun (a1, a2, inst) ->
      let disjunct atoms =
        Cq.make ~free:[ body_var 0 ]
          (Atom.make e [ body_var 0; body_var 1 ]
          :: List.map (decode_atom (fun i -> body_var (i mod 3))) atoms)
      in
      let u = Ucq.of_disjuncts_unchecked [ disjunct a1; disjunct a2 ] in
      List.for_all
        (fun d ->
          equal_tuple_lists (Eval.ucq_answers u d)
            (List.sort_uniq (List.compare Term.compare)
               (List.concat_map (fun q -> naive_answers q d) (Ucq.disjuncts u))))
        (decode_instance inst :: eval_seed_instances))

(* A copy of [d] with every constant renamed [<tag>/<name>] under a
   fresh tag, the new constants interned in [d]'s id order or, given a
   random state, in a shuffled order. *)
let renamed_copies = ref 0

let renamed_copy ?shuffle d =
  incr renamed_copies;
  let tag = Printf.sprintf "i%d" !renamed_copies in
  let dom = Array.of_list (Term.Set.elements (Fact_set.domain d)) in
  Option.iter
    (fun st ->
      for i = Array.length dom - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = dom.(i) in
        dom.(i) <- dom.(j);
        dom.(j) <- t
      done)
    shuffle;
  let renamed = Hashtbl.create 64 in
  Array.iter
    (fun (t : Term.t) ->
      match t.Term.view with
      | Term.Const n -> Hashtbl.replace renamed t (Term.const (tag ^ "/" ^ n))
      | Term.Var _ | Term.App _ -> Hashtbl.replace renamed t t)
    dom;
  Fact_set.of_list
    (List.map
       (fun a ->
         Atom.make (Atom.rel a) (List.map (Hashtbl.find renamed) (Atom.args a)))
       (Fact_set.atoms d))

(* Answers by constant name, tags stripped, in name order. *)
let render_answers tuples =
  let name (t : Term.t) =
    match t.Term.view with
    | Term.Const n -> (
        match String.index_opt n '/' with
        | Some i -> String.sub n (i + 1) (String.length n - i - 1)
        | None -> n)
    | Term.Var _ | Term.App _ -> Fmt.str "%a" Term.pp t
  in
  List.sort compare (List.map (List.map name) tuples)

let prop_eval_interning_order =
  (* Views and answer rows are ordered by intern id; the answers
     themselves must not depend on the order the constants were
     interned in. Besides the random query, fixed two-step paths and a
     triangle make every case join through re-sorted views. *)
  let v = body_var in
  let at rel args = Atom.make rel (List.map v args) in
  let fixed =
    [
      Cq.make ~free:[ v 0; v 2 ] [ at e [ 0; 1 ]; at e [ 1; 2 ] ];
      Cq.make ~free:[ v 0; v 2 ] [ at r [ 0; 1 ]; at e [ 1; 2 ] ];
      Cq.make ~free:[ v 0 ] [ at e [ 0; 1 ]; at r [ 1; 2 ]; at p [ 2 ] ];
      Cq.make ~free:[ v 0; v 1 ] [ at e [ 0; 1 ]; at e [ 1; 2 ]; at e [ 0; 2 ] ];
    ]
  in
  QCheck.Test.make ~count
    ~name:"Eval.answers: same answers by name under shuffled interning"
    QCheck.(triple open_query_arb (int_bound 10_000) bool)
    (fun (qenc, seed, grid) ->
      let nodes = 5 + (seed mod 6) in
      let edges =
        if grid then
          Theories.Instances.grid r e ~width:(2 + (seed mod 4))
            ~height:(2 + (seed / 4 mod 4))
        else
          Fact_set.union
            (Theories.Instances.erdos_renyi e ~seed ~nodes ~edges:(3 * nodes))
            (Theories.Instances.erdos_renyi r ~seed:(seed + 1) ~nodes
               ~edges:(2 * nodes))
      in
      let d =
        Fact_set.union edges
          (Fact_set.of_list
             (List.filteri
                (fun i _ -> i mod 2 = 0)
                (List.map
                   (fun t -> Atom.make p [ t ])
                   (Term.Set.elements (Fact_set.domain edges)))))
      in
      let natural = renamed_copy d in
      let shuffled = renamed_copy ~shuffle:(Random.State.make [| seed |]) d in
      List.for_all
        (fun q ->
          let expected = render_answers (Eval.answers q d) in
          render_answers (Eval.answers q natural) = expected
          && render_answers (Eval.answers q shuffled) = expected)
        (decode_open_query qenc :: fixed))

let prop_eval_zoo_certain_answers_agree =
  (* The [frontier answer] pipeline (Strategy -> rewrite -> evaluate)
     against chase-then-query across the theory zoo, sequential and -j4:
     exact claims must match exactly, inexact answers must be sound. *)
  QCheck.Test.make ~count
    ~name:"zoo certain answers: rewrite-then-evaluate = chase-then-query (j1, j4)"
    QCheck.(
      pair (int_bound 1000)
        (list_of_size Gen.(1 -- 5)
           (triple (int_bound 20) (int_bound 4) (int_bound 4))))
    (fun (pick, triples) ->
      let theory = List.nth zoo_theories (pick mod List.length zoo_theories) in
      let d = decode_zoo_instance theory triples in
      let sig_ = theory_signature theory in
      let rel =
        match List.find_opt (fun s -> Symbol.arity s > 0) sig_ with
        | Some s -> s
        | None -> e
      in
      let xq = Term.var "x" in
      let args =
        List.init (Symbol.arity rel) (fun i ->
            if i = 0 then xq else Term.var (Printf.sprintf "y%d" i))
      in
      let q = Cq.make ~free:[ xq ] [ Atom.make rel args ] in
      let reference, ref_exact, _ =
        Portfolio.Strategy.chase_arm ~max_depth:6 ~max_atoms theory d q
      in
      let plan = Portfolio.plan theory in
      List.for_all
        (fun pool ->
          let a =
            Portfolio.execute ?pool ~budget:portfolio_budget ~max_depth:6
              ~max_atoms plan theory d q
          in
          if a.Portfolio.Strategy.exact && ref_exact then
            Portfolio.Strategy.equal_answers a.Portfolio.Strategy.tuples
              reference
          else if ref_exact then
            List.for_all
              (fun tuple -> List.exists (( = ) tuple) reference)
              a.Portfolio.Strategy.tuples
          else true)
        [ None; Some pool4 ])

(* ------------------------------------------------------------------ *)
(* The pool primitives themselves                                      *)
(* ------------------------------------------------------------------ *)

let prop_pool_primitives =
  QCheck.Test.make ~count ~name:"pool map/filter/exists = List counterparts"
    QCheck.(list int)
    (fun l ->
      let f x = (x * 31) mod 1009 in
      let pred x = x mod 3 = 0 in
      List.for_all
        (fun pool ->
          Parallel.Pool.map_list pool f l = List.map f l
          && Parallel.Pool.filter_list pool pred l = List.filter pred l
          && Parallel.Pool.exists pool pred (Array.of_list l)
             = List.exists pred l)
        [ Parallel.Pool.sequential; pool2; pool4 ])

(* ------------------------------------------------------------------ *)
(* Fault injection: every Exhausted salvage path, under random seeds   *)
(* ------------------------------------------------------------------ *)

(* [Faults.forced_trip] is consulted by {e every} [Guard.check] — including
   the unlimited guards that guarded entry points create internally — so a
   fault-free reference run must execute under [Faults.none]. Each faulty
   run installs its schedule and uninstalls it again even on exceptions.
   The CI fault matrix sets FRONTIER_FAULTS to rotate the whole suite
   through different schedule families; it is mixed into every seed. *)
let fault_seed_base =
  match Sys.getenv_opt "FRONTIER_FAULTS" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
  | None -> 0

let with_faults seed f =
  Guard.Faults.install
    (Guard.Faults.of_seed (abs (seed + (65_537 * fault_seed_base))));
  Fun.protect ~finally:(fun () -> Guard.Faults.install Guard.Faults.none) f

let prop_faulty_chase_is_prefix =
  (* Whatever the schedule injects — task exceptions, worker deaths,
     simulated deadline/memory trips — the chase either completes with
     exactly the fault-free stages or stops early with a stage-exact
     prefix of them (aborted sweeps are discarded whole). *)
  QCheck.Test.make ~count
    ~name:"fault-injected chase = stage-exact prefix of fault-free chase"
    QCheck.(triple small_nat theory_arb instance_arb)
    (fun (seed, trules, inst) ->
      let theory = decode_theory trules and d = decode_instance inst in
      let reference = Chase.Engine.run ~max_depth ~max_atoms theory d in
      List.for_all
        (fun pool ->
          let run =
            with_faults (1 + seed) (fun () ->
                let guard = Guard.create () in
                Chase.Engine.run ~pool ~guard ~max_depth ~max_atoms theory d)
          in
          let dr = Chase.Engine.depth run in
          dr <= Chase.Engine.depth reference
          && List.for_all
               (fun i ->
                 Fact_set.equal (Chase.Engine.stage run i)
                   (Chase.Engine.stage reference i))
               (List.init (dr + 1) Fun.id)
          &&
          match Chase.Engine.interrupted run with
          | Some _ -> true
          | None ->
              (* No trip fired: the run must be indistinguishable from the
                 fault-free one (injected task faults are absorbed by the
                 pool's retry and orphan-rescue paths). *)
              dr = Chase.Engine.depth reference
              && Bool.equal (Chase.Engine.saturated run)
                   (Chase.Engine.saturated reference))
        [ Parallel.Pool.sequential; pool2; pool4 ])

let prop_faulty_rewriting_is_sound =
  (* A rewriting interrupted by a guard trip keeps its store: every
     collected disjunct came from sound piece-rewriting steps, so each
     must be subsumed by some disjunct of the fault-free fixpoint. *)
  QCheck.Test.make ~count
    ~name:"fault-injected rewriting is entailed by the fault-free fixpoint"
    QCheck.(triple small_nat theory_arb query_arb)
    (fun (seed, trules, qatoms) ->
      let theory = decode_theory trules and q = decode_query qatoms in
      let full = Rewriting.Rewrite.rewrite ~budget:rewrite_budget theory q in
      match full.Rewriting.Rewrite.outcome with
      | Rewriting.Rewrite.Complete ->
          List.for_all
            (fun pool ->
              let partial =
                with_faults (1 + seed) (fun () ->
                    let guard = Guard.create () in
                    Rewriting.Rewrite.rewrite ~pool ~guard
                      ~budget:rewrite_budget theory q)
              in
              List.for_all
                (fun dq ->
                  List.exists
                    (fun d' -> Containment.implies dq d')
                    (Ucq.disjuncts full.Rewriting.Rewrite.ucq))
                (Ucq.disjuncts partial.Rewriting.Rewrite.ucq))
            [ Parallel.Pool.sequential; pool3; pool4 ]
      | _ -> true)

let prop_pool_absorbs_injected_faults =
  (* Injected task exceptions recover through the coordinator's retry
     pass; worker deaths recover through orphan redistribution. Under any
     schedule, [map_array] must still return exactly the right answers. *)
  QCheck.Test.make ~count
    ~name:"map_array under any fault schedule = Array.map"
    QCheck.(pair small_nat (list int))
    (fun (seed, l) ->
      let f x = (x * 7) + 1 in
      let arr = Array.of_list l in
      let expected = Array.map f arr in
      List.for_all
        (fun pool ->
          with_faults (1 + seed) (fun () ->
              Parallel.Pool.map_array pool f arr = expected))
        [ Parallel.Pool.sequential; pool2; pool4 ])

let prop_pool_aggregates_real_errors =
  (* Genuine task failures (not injected, so the retry pass re-fails) are
     aggregated into one [Task_errors], index-sorted, with one entry per
     failing index — never a bare exception from whichever task lost the
     race. *)
  QCheck.Test.make ~count
    ~name:"Task_errors lists exactly the failing indices, in order"
    QCheck.(list (pair small_int bool))
    (fun l ->
      let arr = Array.of_list l in
      let f (x, fail) = if fail then failwith (string_of_int x) else x * 2 in
      let expected_idx =
        List.concat
          (List.mapi (fun i (_, fail) -> if fail then [ i ] else []) l)
      in
      List.for_all
        (fun pool ->
          (match Parallel.Pool.map_array pool f arr with
          | res -> expected_idx = [] && res = Array.map f arr
          | exception Parallel.Pool.Task_errors errs ->
              List.map (fun (i, _, _) -> i) errs = expected_idx
              && List.for_all
                   (fun (i, e, _) ->
                     match e with
                     | Failure s -> s = string_of_int (fst arr.(i))
                     | _ -> false)
                   errs)
          &&
          (* The Result-returning variant never raises and agrees slotwise. *)
          let slots = Parallel.Pool.map_array_result pool f arr in
          Array.length slots = Array.length arr
          && List.for_all
               (fun i ->
                 match (slots.(i), snd arr.(i)) with
                 | Ok y, false -> y = f arr.(i)
                 | Error (Failure _, _), true -> true
                 | _ -> false)
               (List.init (Array.length arr) Fun.id))
        [ Parallel.Pool.sequential; pool2; pool4 ])

let prop_faulty_answering_never_lies =
  (* End to end: certain answers computed under fault injection are a
     subset of the fault-free certain answers (a truncated chase can miss
     answers, never invent them). *)
  QCheck.Test.make ~count
    ~name:"fault-injected certain answers are a subset of fault-free ones"
    QCheck.(triple small_nat theory_arb instance_arb)
    (fun (seed, trules, inst) ->
      let theory = decode_theory trules and d = decode_instance inst in
      let x = Term.var "x" and y = Term.var "y" in
      let q = Cq.make ~free:[ x ] [ Atom.make e [ x; y ] ] in
      let full =
        Frontier.certain_answers ~max_depth ~max_atoms theory d q
      in
      let partial =
        with_faults (1 + seed) (fun () ->
            let guard = Guard.create () in
            Frontier.certain_answers ~guard ~max_depth ~max_atoms theory d q)
      in
      List.for_all
        (fun tuple -> List.exists (( = ) tuple) full)
        (partial : Term.t list list))

let prop_faulty_portfolio_never_lies =
  (* Under any injected fault schedule the portfolio still only returns
     entailed tuples: everything it reports must appear in the
     fault-free saturated chase's certain answers, and an answer it
     marks exact under faults must BE the exact answer. *)
  QCheck.Test.make ~count
    ~name:"fault-injected portfolio answers are sound, exact claims exact"
    QCheck.(triple small_nat theory_arb instance_arb)
    (fun (seed, trules, inst) ->
      let theory = decode_theory trules and d = decode_instance inst in
      let x = Term.var "x" and y = Term.var "y" in
      let q = Cq.make ~free:[ x ] [ Atom.make e [ x; y ] ] in
      let plan = Portfolio.plan theory in
      let reference, ref_exact, _ =
        Portfolio.Strategy.chase_arm ~max_depth:6 ~max_atoms theory d q
      in
      QCheck.assume ref_exact;
      List.for_all
        (fun pool ->
          let a =
            with_faults (1 + seed) (fun () ->
                let guard = Guard.create () in
                Portfolio.execute ?pool ~guard ~budget:rewrite_budget
                  ~max_depth:6 ~max_atoms plan theory d q)
          in
          List.for_all
            (fun tuple -> List.exists (( = ) tuple) reference)
            a.Portfolio.Strategy.tuples
          && (not a.Portfolio.Strategy.exact
             || Portfolio.Strategy.equal_answers a.Portfolio.Strategy.tuples
                  reference))
        [ None; Some pool4 ])

let () =
  Alcotest.run "properties"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_matches_naive_reference;
            prop_parallel_chase_deterministic;
            prop_parallel_oblivious_deterministic;
            prop_parallel_rewriting_equivalent;
            prop_kernel_rewriting_matches_naive_reference;
            prop_indexed_store_matches_reference;
            prop_implies_matches_naive;
            prop_isomorphic_matches_naive;
            prop_rewriting_answers_like_chase;
            prop_zoo_answering_agreement;
            prop_portfolio_agrees_with_chase;
            prop_portfolio_agrees_on_zoo_instances;
          ] );
      ( "matcher",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hom_matches_naive;
            prop_prefer_keeps_mappings;
            prop_zoo_chase_matches_naive_reference;
          ] );
      ( "eval",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_eval_answers_match_naive;
            prop_eval_ucq_matches_naive;
            prop_eval_zoo_certain_answers_agree;
            prop_eval_interning_order;
          ] );
      ( "pool",
        [ QCheck_alcotest.to_alcotest prop_pool_primitives ] );
      ( "faults",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_faulty_chase_is_prefix;
            prop_faulty_rewriting_is_sound;
            prop_pool_absorbs_injected_faults;
            prop_pool_aggregates_real_errors;
            prop_faulty_answering_never_lies;
            prop_faulty_portfolio_never_lies;
          ] );
    ]
