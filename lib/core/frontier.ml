module Term = Logic.Term
module Symbol = Logic.Symbol
module Atom = Logic.Atom
module Fact_set = Logic.Fact_set
module Gaifman = Logic.Gaifman
module Cq = Logic.Cq
module Ucq = Logic.Ucq
module Containment = Logic.Containment
module Tgd = Logic.Tgd
module Theory = Logic.Theory
module Homomorphism = Logic.Homomorphism
module Render = Logic.Render
module Eval = Eval

module Chase_engine = Chase.Engine
module Entailment = Chase.Entailment
module Cores = Chase.Core_model
module Termination = Chase.Termination
module Chase_variants = Chase.Variants
module Explain = Chase.Explain

module Rewrite = Rewriting.Rewrite
module Piece_unifier = Rewriting.Piece_unifier
module Bdd_probe = Rewriting.Bdd
module Locality = Rewriting.Locality
module Distancing = Rewriting.Distancing
module Exercises = Rewriting.Exercises

module Marked_query = Marked.Marked_query
module Marked_process = Marked.Process
module Marked_rank = Marked.Rank

module Normal_form = Normalization.Normalize
module Ancestors = Normalization.Ancestry
module Crucial = Normalization.Crucial

module Zoo = Theories.Zoo
module Instances = Theories.Instances
module Classes = Theories.Classes

module Multiset = Order.Multiset
module Transform = Theories.Transform
module Generators = Theories.Generators

module Reasoner = Reasoner
module Portfolio = Portfolio
module Pool = Parallel.Pool
module Saturation = Saturation
module Guard = Guard
module Checkpoint = Checkpoint

module Parse = struct
  exception Error of string

  let wrap f x =
    try f x with Logic.Parser.Parse_error msg -> raise (Error msg)

  let theory ?name input = wrap (Logic.Parser.parse_theory ?name) input
  let instance input = wrap Logic.Parser.parse_instance input
  let query input = wrap Logic.Parser.parse_query input
  let rule input = wrap Logic.Parser.parse_rule input
end

let certain_answers ?pool ?guard ?max_depth ?max_atoms theory d q =
  let run = Chase.Engine.run ?pool ?guard ?max_depth ?max_atoms theory d in
  let dom = Fact_set.domain d in
  List.filter
    (fun tuple -> List.for_all (fun t -> Term.Set.mem t dom) tuple)
    (Eval.answers ?guard q (Chase.Engine.result run))

let certain ?guard ?max_depth ?max_atoms theory d q tuple =
  match
    Chase.Entailment.entails ?guard ?max_depth ?max_atoms theory d q tuple
  with
  | Chase.Entailment.Entailed _ -> true
  | Chase.Entailment.Not_entailed | Chase.Entailment.Unknown -> false

let rewrite ?pool ?guard ?budget theory q =
  Rewriting.Rewrite.rewrite ?pool ?guard ?budget theory q

let answer_via_rewriting ?pool ?guard ?budget theory d q =
  let r = Rewriting.Rewrite.rewrite ?pool ?guard ?budget theory q in
  match r.Rewriting.Rewrite.outcome with
  | Rewriting.Rewrite.Complete ->
      Some (Eval.ucq_answers ?guard r.Rewriting.Rewrite.ucq d)
  | _ -> None

let classify = Theories.Classes.classify
