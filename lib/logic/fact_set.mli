(** Fact sets: database instances and (finite prefixes of) chase structures.

    A fact set is an immutable set of atoms together with indexes used by
    the homomorphism engine: a per-relation table and, per (relation,
    argument position), a join index keyed by the hash-consed term id.

    Indexes are maintained {e incrementally}: the index is a persistent
    stack of frozen (immutable after construction) layers of flat arrays,
    structurally shared between a set and the sets derived from it. [add]
    and [union] cons a layer holding just the delta onto the parent's
    stack and small [diff]s rebuild only the layers containing removed
    atoms, so a chase whose [full] set grows stage by stage pays
    O(|delta|) indexing per stage. Operations that churn most of the set
    (filter, inter, large diffs) return an unindexed set whose index is
    lazily rebuilt on first use.

    Each layer stores every fact once, in a packed table per relation
    (the facts plus a row-major slab of their argument-term ids), and
    indexes every argument position with a CSR postings column: the
    table's rows sorted by (term id, row), one ascending slice per
    distinct id, found through a flat open-addressing table on the id.
    Candidate rows come out newest layer first, in ascending row order
    within a layer — the order the homomorphism engine enumerates
    matches in, and so the order the chase names its nulls in.

    The active domain is not part of the index: {!domain} computes it on
    first use, from a parent set's domain where one is known. *)

type t

val empty : t
val of_list : Atom.t list -> t
val of_set : Atom.Set.t -> t
val to_set : t -> Atom.Set.t
val atoms : t -> Atom.t list
val cardinal : t -> int
val is_empty : t -> bool
val mem : Atom.t -> t -> bool
val add : Atom.t -> t -> t
val remove : Atom.t -> t -> t
val union : t -> t -> t

val union_disjoint : t -> t -> t
(** [union], for callers that already know the operands share no atom
    (e.g. a chase stage's freshly-derived delta): skips the disjointness
    walk that [union] performs before sharing index layers wholesale.
    The precondition is not checked. *)

val diff : t -> t -> t
val inter : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val filter : (Atom.t -> bool) -> t -> t

val domain : t -> Term.Set.t
(** The active domain [dom(F)]: every term appearing in some fact. Terms are
    treated atomically (a Skolem term is one element; its subterms are not
    domain members unless they appear in argument position themselves).
    Computed on the first call and kept; a set derived by [add], [union]
    or [diff] from a set whose domain is known (or pending) derives its
    own from it. Neither forces nor is forced by the join index. *)

val signature : t -> Symbol.Set.t

val by_rel : t -> Symbol.t -> Atom.t list
(** All facts with the given relation symbol, in index order: newest
    layer first, ascending rows within a layer. *)

val iter_join_candidates :
  t ->
  Symbol.t ->
  bound_pos:int array ->
  bound_ids:int array ->
  nb:int ->
  (Atom.t array -> int array -> int -> unit) ->
  unit
(** The homomorphism engine's candidate enumeration. The [nb]
    constraints [(bound_pos.(i), bound_ids.(i))], [i < nb], are bare
    (position, term id) pairs in caller-owned scratch arrays — no
    per-probe allocation. [f atoms ids row] is called for candidate rows
    {e without} the constraint filter applied (the visited rows are a
    superset of the facts agreeing with every constraint; exactly those
    facts when [nb <= 1]): [atoms] is a relation table's fact array and
    [ids] its row-major argument-id slab — [ids.(row * arity + pos)] is
    the hash-consed id of argument [pos] of [atoms.(row)]. The arrays
    are the index's own frozen storage: do not mutate them. With
    [nb = 0] every fact of the relation is visited, in {!by_rel} order;
    with constraints, the facts that pass the filter come out in that
    same relative order. With two or more constraints and a large
    enough seed, the two smallest sorted slices are merge-intersected
    before rows reach the callback. *)

val atoms_with_term : t -> Term.t -> Atom.t list
(** Every atom with the given term in some argument position, in the
    same order a [List.filter] over [atoms] would produce. Answered from
    the join index — one slice lookup per (layer, relation, position)
    instead of a scan of the whole set.
    Forces the index. *)

val force_index : t -> unit
(** Build the set's join index now (a no-op once built). Callers that
    fan reads of a shared set out to worker domains force it first, so
    the workers only read. *)

val is_indexed : t -> bool
(** Whether the set's index has (or shares) a built form — lets callers
    choose between index-driven lookups and a plain scan without
    triggering a from-scratch index build. *)

val restrict : t -> Term.Set.t -> t
(** The induced substructure on the given terms: keep the atoms whose every
    argument is in the set (Definition 36's "ban the other terms"). *)

val pp : t Fmt.t

(** {1 Index instrumentation}

    Process-wide counters of index maintenance work, for the chase engines'
    [stage_stats] and the bench harness. Thread-safe. *)

type counters = {
  builds : int;  (** full index constructions *)
  built_atoms : int;  (** atoms indexed by full builds *)
  extends : int;  (** incremental index extensions *)
  delta_atoms : int;  (** atoms added to an existing index *)
  shrinks : int;  (** incremental index removals *)
  removed_atoms : int;  (** atoms removed from an existing index *)
  posting_probes : int;  (** join-index lookups (per layer, per constraint) *)
  posting_intersections : int;
      (** sorted-slice merge-intersections in {!iter_join_candidates} *)
  domains : int;  (** active domains computed by {!domain} *)
}

val counters : unit -> counters
val reset_counters : unit -> unit
