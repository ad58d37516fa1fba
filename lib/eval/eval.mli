(** The unified executable-plan evaluation layer.

    Rewriting turns an ontology-mediated query into a UCQ; this module
    is the half that {e executes} the result against data. A CQ compiles
    into a worst-case-optimal, leapfrog-style multiway join over sorted
    views of the fact set's rows, read straight from its atom set (the
    register machine's join index is never built): one global variable
    elimination order (connectivity-greedy — each next variable shares
    an atom with the ordered prefix whenever possible), per-atom
    key-column permutations fixed
    at plan time (bound/rigid slots first), and per-variable iterator
    frontiers intersected with galloping (exponential-probe) seeks. Join
    rows are projected into a flat, deduplicating int buffer and turned
    into sorted term tuples once, at the end. A [Ucq.t] evaluates as a
    k-way merge of its plans' sorted answer lists.

    The same module is the single entry point for every other matcher in
    the codebase: {!Match} hosts the order-pinned trigger enumeration
    the chase engine uses (delegating to the register-machine engine —
    trigger {e order} names fresh nulls, so it must stay bit-identical),
    and at module initialization an existence probe is registered in
    {!Eval_hook} for the containment solver. Queries the leapfrog
    compiler declines run on the register machine
    ({!Homomorphism.iter}) instead. *)

open Logic

(** {1 Plans} *)

module Plan : sig
  type t

  val compile : ?init:Term.t Term.Map.t -> Cq.t -> t
  (** Compile [q] (with the [init]-bound variables frozen to their
      images) into an executable plan. Queries the leapfrog engine
      cannot represent (an argument that is neither a bindable variable
      nor a closed term) compile to a legacy-engine plan instead —
      {!compiled} tells them apart. *)

  val compiled : t -> bool
  (** [true]: the plan runs on the leapfrog join; [false]: it delegates
      to the register machine ({!Homomorphism.iter}). *)

  val order : t -> Term.t list
  (** The global variable elimination order: connectivity-greedy from
      the most-occurring variable, so each level's frontier is
      constrained by the levels above it. Answer tuples are projections
      of the full join, deduplicated as rows are emitted. Empty for
      legacy plans. *)

  val pp : t Fmt.t
end

(** A fact set prepared for repeated plan runs: per-relation row-major
    argument-id matrices, read from {!Fact_set.to_set} in one pass on
    first use (already sorted in argument order, since atoms compare by
    relation, then argument ids), plus one sorted copy per further
    (relation, key order), built lazily under a mutex so pool workers can
    share one view. The CQ/UCQ entry points below cache views per fact
    set (physical identity, small LRU) — repeated queries against one
    instance amortize the sort the same way {!Fact_set} amortizes its
    join index. *)
module Prepared : sig
  type t

  val make : Fact_set.t -> t
  val fact_set : t -> Fact_set.t
end

val run :
  ?guard:Guard.t ->
  Plan.t ->
  Prepared.t ->
  (Term.t list list, Term.t list list) Guard.outcome
(** Execute a plan: the distinct tuples of values of the plan's unbound
    answer variables (in [Cq.free] order), sorted as {!Cq.answers}
    sorts. Guard checkpoints run at {!Guard.poll_mask} spacing on the
    seek counter and one fuel unit is drawn per distinct tuple; a trip
    salvages the tuples found so far — every one is a real answer
    (sound, possibly incomplete). *)

(** {1 CQ / UCQ evaluation}

    Drop-in equivalents of [Cq.holds]/[Cq.answers]/[Ucq.boolean_holds],
    executing through plans (and, for queries the leapfrog compiler
    declines, through the register machine — results are identical
    either way). *)

val answers : ?guard:Guard.t -> Cq.t -> Fact_set.t -> Term.t list list
(** All distinct answer tuples, like {!Cq.answers}. On a guard trip the
    partial (sound) tuple list is returned; use {!answers_outcome} to
    observe the trip. *)

val answers_outcome :
  ?guard:Guard.t ->
  Cq.t ->
  Fact_set.t ->
  (Term.t list list, Term.t list list) Guard.outcome

val holds : Cq.t -> Fact_set.t -> Term.t list -> bool
(** [holds q f tuple], like {!Cq.holds}. Raises [Invalid_argument] on an
    arity mismatch. *)

val boolean_holds : Cq.t -> Fact_set.t -> bool

val ucq_answers : ?guard:Guard.t -> Ucq.t -> Fact_set.t -> Term.t list list
(** Distinct answers of the union, evaluated disjunct by disjunct over
    one shared {!Prepared} view; the disjuncts' sorted answer lists are
    merged. *)

val ucq_answers_outcome :
  ?guard:Guard.t ->
  Ucq.t ->
  Fact_set.t ->
  (Term.t list list, Term.t list list) Guard.outcome

val ucq_holds : Ucq.t -> Fact_set.t -> Term.t list -> bool
val ucq_boolean_holds : Ucq.t -> Fact_set.t -> bool

(** {1 Chase trigger matching}

    The semi-naive trigger enumeration, moved verbatim from the chase
    engine: the {e order} in which triggers are produced names the fresh
    nulls of Definition 4, so these searches are pinned to the
    register-machine engine ({!Homomorphism.iter_multi}) whose
    enumeration order the QCheck differentials fix — the leapfrog join
    visits solutions in sorted-id order instead and must never be used
    here. Centralizing them in the plan layer retires the last matcher
    that lived outside it. *)
module Match : sig
  (** One independent round of a rule's semi-naive trigger enumeration:
      seeded by a delta fact at body position [k], by a new domain
      element at domain-variable position [i], or the one-shot firing of
      a fully ground rule. *)
  type part = Delta_seed of int | Dom_seed of int | Ground

  val rule_parts : Tgd.t -> old_is_empty:bool -> part list

  val dom_reads : Tgd.t -> part -> [ `Old | `New | `Full ] list
  (** Which of the three domain lists {!part_triggers} reads for this
      part ([old_dom_list], [new_dom_list], [full_dom_list]): only parts
      of rules with [dom(...)] variables read any, so a caller builds a
      list only when some part reads it. *)

  val part_triggers :
    Tgd.t ->
    part ->
    old_facts:Fact_set.t ->
    delta:Fact_set.t ->
    full:Fact_set.t ->
    old_dom_list:Term.t list ->
    new_dom_list:Term.t list ->
    full_dom_list:Term.t list ->
    (Homomorphism.mapping -> unit) ->
    unit
  (** Enumerate the triggers of [rule] in [part] that use at least one
      new ingredient, in the exact order the sequential engine fires
      them (no duplicates across parts). *)
end

(** {1 Instrumentation}

    Process-wide counters of leapfrog work, surfaced through the CLI's
    [--stats] plumbing next to the register-machine and posting
    counters. Thread-safe. *)

type counters = {
  plans : int;  (** leapfrog plans executed *)
  seeks : int;  (** iterator seek operations *)
  gallops : int;  (** exponential-probe doubling steps inside seeks *)
  emitted : int;
      (** distinct answer tuples per plan (an existence check counts its
          witness) *)
}

val counters : unit -> counters
val reset_counters : unit -> unit
