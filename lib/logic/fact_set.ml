(* Fact sets with incrementally-maintained indexes.

   The index is a persistent stack of *frozen layers*, LSM-style: each
   layer is an immutable set of flat arrays (per-relation facts and a
   per-(relation, position) join index) that is never mutated after
   construction, so layers are structurally shared between a set and the
   sets derived from it. [add] and [union] cons a layer holding just the
   delta onto the parent's stack, making the indexing cost of a growing
   chase O(|delta|) per stage; lookups probe every layer (the stack is
   kept shallow by deterministically merging the smallest adjacent pair
   when it grows past a bound). Small [diff]s rebuild only the layers
   that contain removed atoms and share the rest. Operations that churn
   most of the set (filter, inter, large diffs) return an unindexed set
   whose index is rebuilt lazily on first use.

   Each layer keeps a single packed table per relation ([atoms] plus
   the contiguous row-major [ids] slab of their argument-term ids), and
   per argument position a *postings* column in CSR form: the table's
   rows sorted by (hash-consed term id, row), cut into one ascending
   slice per distinct id, with a flat open-addressing table from id to
   slice. A single-constraint lookup is one int probe and needs no
   post-filtering; multi-constraint joins intersect two sorted slices
   instead of scanning and filtering. A relation table lists a layer's
   facts newest-first and every slice visits them in that same relative
   order, which fixes the candidate enumeration order the homomorphism
   engine (and so the chase's null naming) depends on.

   The active domain is not part of the index: it is computed on the
   first [domain] call, derived from a parent's domain where the parent
   has one. *)

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type counters = {
  builds : int;
  built_atoms : int;
  extends : int;
  delta_atoms : int;
  shrinks : int;
  removed_atoms : int;
  posting_probes : int;
  posting_intersections : int;
  domains : int;
}

let c_builds = Atomic.make 0
let c_built_atoms = Atomic.make 0
let c_extends = Atomic.make 0
let c_delta_atoms = Atomic.make 0
let c_shrinks = Atomic.make 0
let c_removed_atoms = Atomic.make 0
let c_posting_probes = Atomic.make 0
let c_posting_intersections = Atomic.make 0
let c_domains = Atomic.make 0

let counters () =
  {
    builds = Atomic.get c_builds;
    built_atoms = Atomic.get c_built_atoms;
    extends = Atomic.get c_extends;
    delta_atoms = Atomic.get c_delta_atoms;
    shrinks = Atomic.get c_shrinks;
    removed_atoms = Atomic.get c_removed_atoms;
    posting_probes = Atomic.get c_posting_probes;
    posting_intersections = Atomic.get c_posting_intersections;
    domains = Atomic.get c_domains;
  }

let reset_counters () =
  Atomic.set c_builds 0;
  Atomic.set c_built_atoms 0;
  Atomic.set c_extends 0;
  Atomic.set c_delta_atoms 0;
  Atomic.set c_shrinks 0;
  Atomic.set c_removed_atoms 0;
  Atomic.set c_posting_probes 0;
  Atomic.set c_posting_intersections 0;
  Atomic.set c_domains 0

(* ------------------------------------------------------------------ *)
(* Postings                                                            *)
(* ------------------------------------------------------------------ *)

(* The join index of one (layer, relation, position). [rows] holds every
   row of the relation table once, sorted by (term id at the position,
   row); [keys] are the distinct ids, ascending, and the rows holding
   [keys.(k)] are the ascending slice [offs.(k) .. offs.(k + 1) - 1] of
   [rows]. [slots] maps an id to its key index by linear probing ([-1]:
   empty slot); its length is a power of two, at least twice the key
   count. All four are plain [int array]s on the OCaml heap. *)
type postings = {
  keys : int array;
  offs : int array;
  rows : int array;
  slots : int array;
}

let slot_of id mask = ((id * 0x9E3779B97F4A7C1) lsr 32) land mask

let slots_of keys =
  let nk = Array.length keys in
  let size = ref 2 in
  while !size < 2 * nk do
    size := 2 * !size
  done;
  let slots = Array.make !size (-1) in
  let mask = !size - 1 in
  for k = 0 to nk - 1 do
    let i = ref (slot_of keys.(k) mask) in
    while slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- k
  done;
  slots

(* The key index of [id] in [p], or [-1]. *)
let find_key p id =
  let slots = p.slots in
  let mask = Array.length slots - 1 in
  let rec probe i =
    let k = Array.unsafe_get slots i in
    if k < 0 || Array.unsafe_get p.keys k = id then k
    else probe ((i + 1) land mask)
  in
  probe (slot_of id mask)

(* Sorts packed [id lsl rbits lor row] ints whose rows ascend in array
   order. Short columns get an insertion sort (no scratch, no histogram);
   longer ones a stable LSD radix sort over the id bits only — stability
   keeps each id's rows ascending, so the result is the full (id, row)
   order. The digit width grows with the column ([rbits] is about
   log2 n), so a histogram never outweighs the column it sorts. *)
let insertion_max = 32

let sort_packed packed ~rbits ~max_id =
  let n = Array.length packed in
  if n <= insertion_max then
    for i = 1 to n - 1 do
      let v = packed.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && packed.(!j) > v do
        packed.(!j + 1) <- packed.(!j);
        decr j
      done;
      packed.(!j + 1) <- v
    done
  else begin
    let digit_bits = min 11 rbits in
    let radix = 1 lsl digit_bits in
    let dmask = radix - 1 in
    let count = Array.make radix 0 in
    let src = ref packed and dst = ref (Array.make n 0) in
    let shift = ref rbits in
    while max_id lsr (!shift - rbits) > 0 do
      Array.fill count 0 radix 0;
      let s = !src and d = !dst and sh = !shift in
      for i = 0 to n - 1 do
        let b = (Array.unsafe_get s i lsr sh) land dmask in
        Array.unsafe_set count b (Array.unsafe_get count b + 1)
      done;
      let sum = ref 0 in
      for b = 0 to radix - 1 do
        let c = count.(b) in
        count.(b) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let v = Array.unsafe_get s i in
        let b = (v lsr sh) land dmask in
        let at = Array.unsafe_get count b in
        Array.unsafe_set d at v;
        Array.unsafe_set count b (at + 1)
      done;
      src := d;
      dst := s;
      shift := sh + digit_bits
    done;
    if !src != packed then Array.blit !src 0 packed 0 n
  end

(* The postings of column [pos] of an [n]-row, [arity]-wide id slab. *)
let postings_of_column ids ~n ~arity ~pos =
  let rbits = ref 1 in
  while 1 lsl !rbits < n do
    incr rbits
  done;
  let rbits = !rbits in
  let rmask = (1 lsl rbits) - 1 in
  let packed = Array.make n 0 in
  let max_id = ref 0 in
  for row = 0 to n - 1 do
    let id = ids.((row * arity) + pos) in
    if id > !max_id then max_id := id;
    packed.(row) <- (id lsl rbits) lor row
  done;
  if !max_id lsr (62 - rbits) <> 0 then
    invalid_arg "Fact_set: term id too large to pack";
  sort_packed packed ~rbits ~max_id:!max_id;
  let nk = ref 0 and prev = ref (-1) in
  for i = 0 to n - 1 do
    let id = packed.(i) lsr rbits in
    if id <> !prev then begin
      incr nk;
      prev := id
    end
  done;
  let keys = Array.make !nk 0 and offs = Array.make (!nk + 1) n in
  let k = ref (-1) in
  for i = 0 to n - 1 do
    let v = packed.(i) in
    let id = v lsr rbits in
    if !k < 0 || keys.(!k) <> id then begin
      incr k;
      keys.(!k) <- id;
      offs.(!k) <- i
    end;
    (* [packed] becomes [rows] in place. *)
    packed.(i) <- v land rmask
  done;
  { keys; offs; rows = packed; slots = slots_of keys }

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

(* A packed bucket: the facts of one (layer, relation) as an
   [Atom.t array] plus a parallel row-major [int array] of their
   hash-consed argument-term ids ([ids.(row * arity + pos)]), and one
   postings column per argument position. The join inner loop — reject
   a candidate fact because some argument does not match — runs entirely
   over the contiguous [ids] slab (one int compare per constraint,
   cache-line friendly) instead of chasing [Atom.t -> Term.t] pointers
   per position per fact. [n] is cached: seed selection compares bucket
   sizes, which must not cost anything. *)
type bucket = {
  sid : int;  (* Symbol.id of the relation *)
  n : int;
  atoms : Atom.t array;
  ids : int array;
  posts : postings array;
}

type layer = {
  lsize : int;  (* atoms in this layer *)
  rels : bucket array;  (* one per relation, ascending [sid] *)
}

(* Frozen after construction: every array of a layer is filled inside
   the [layer_of_*] / [merge_layers] builders below. *)

(* The index of [sid]'s bucket in [l.rels], or [-1]. *)
let bucket_index l sid =
  let rels = l.rels in
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let s = (Array.unsafe_get rels mid).sid in
      if s = sid then mid else if s < sid then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length rels)

let bucket_of_rows ~sid ~arity atoms ids =
  let n = Array.length atoms in
  {
    sid;
    n;
    atoms;
    ids;
    posts = Array.init arity (fun pos -> postings_of_column ids ~n ~arity ~pos);
  }

(* Mutable accumulator used only while a layer is being built; frozen
   into a packed [bucket] at the end. [pitems] is newest-first — packing
   reverses it, so bucket row 0 is the newest fact: the probe order the
   rest of the engine depends on. *)
type proto = { psym : Symbol.t; mutable pn : int; mutable pitems : Atom.t list }

let pack_bucket p =
  let arity = Symbol.arity p.psym in
  let n = p.pn in
  let atoms = Array.make n (List.hd p.pitems) in
  let ids = Array.make (n * arity) 0 in
  List.iteri
    (fun row (a : Atom.t) ->
      atoms.(row) <- a;
      let args = a.Atom.args in
      for pos = 0 to arity - 1 do
        ids.((row * arity) + pos) <- args.(pos).Term.id
      done)
    p.pitems;
  bucket_of_rows ~sid:(Symbol.id p.psym) ~arity atoms ids

let layer_of_iter ~size iter =
  let protos : (int, proto) Hashtbl.t = Hashtbl.create 16 in
  iter (fun atom ->
      let rel = Atom.rel atom in
      let p =
        match Hashtbl.find_opt protos (Symbol.id rel) with
        | Some p -> p
        | None ->
            let p = { psym = rel; pn = 0; pitems = [] } in
            Hashtbl.replace protos (Symbol.id rel) p;
            p
      in
      p.pn <- p.pn + 1;
      p.pitems <- atom :: p.pitems);
  let rels =
    Array.of_list (Hashtbl.fold (fun _ p acc -> pack_bucket p :: acc) protos [])
  in
  Array.sort (fun a b -> Int.compare a.sid b.sid) rels;
  { lsize = size; rels }

let layer_of_list atoms n = layer_of_iter ~size:n (fun f -> List.iter f atoms)

let layer_of_set set =
  layer_of_iter ~size:(Atom.Set.cardinal set) (fun f -> Atom.Set.iter f set)

(* Merge [newer] onto [older]: bucket rows of the newer layer stay in
   front, preserving the probe order of the unmerged stack, and the
   postings are rebuilt over the joined slab; a relation present on one
   side only keeps its bucket as is. *)
let merge_buckets (v : bucket) (old : bucket) =
  bucket_of_rows ~sid:v.sid ~arity:(Array.length v.posts)
    (Array.append v.atoms old.atoms)
    (Array.append v.ids old.ids)

let merge_layers newer older =
  Atomic.incr c_builds;
  ignore (Atomic.fetch_and_add c_built_atoms (newer.lsize + older.lsize));
  let a = newer.rels and b = older.rels in
  let na = Array.length a and nb = Array.length b in
  let acc = ref [] and i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && a.(!i).sid < b.(!j).sid) then begin
      acc := a.(!i) :: !acc;
      incr i
    end
    else if !i >= na || b.(!j).sid < a.(!i).sid then begin
      acc := b.(!j) :: !acc;
      incr j
    end
    else begin
      acc := merge_buckets a.(!i) b.(!j) :: !acc;
      incr i;
      incr j
    end
  done;
  { lsize = newer.lsize + older.lsize; rels = Array.of_list (List.rev !acc) }

(* ------------------------------------------------------------------ *)
(* Indexes: layer stacks                                               *)
(* ------------------------------------------------------------------ *)

type index = { layers : layer list; (* newest first *) n_layers : int }

(* Lookups probe every layer, so the stack is kept shallow: past
   [max_layers] the adjacent pair with the smallest combined size is
   merged (deterministic, and amortized O(log n) per atom under streams
   of small adds — the geometric layer sizes of a doubling chase make the
   smallest-pair merge cheap relative to the stage's own delta). The
   bound is deliberately tight: every join probe pays one lookup per
   layer, and the chase hot loop issues several probes per trigger, so a
   deep stack taxes reads far more than compaction taxes writes. *)
let max_layers = 4

let rec rebalance layers n =
  if n <= max_layers then (layers, n)
  else
    let arr = Array.of_list layers in
    let best = ref 0 and best_size = ref max_int in
    for i = 0 to Array.length arr - 2 do
      let s = arr.(i).lsize + arr.(i + 1).lsize in
      if s < !best_size then begin
        best := i;
        best_size := s
      end
    done;
    let merged = merge_layers arr.(!best) arr.(!best + 1) in
    let layers' =
      List.concat
        [
          Array.to_list (Array.sub arr 0 !best);
          [ merged ];
          Array.to_list
            (Array.sub arr (!best + 2) (Array.length arr - !best - 2));
        ]
    in
    rebalance layers' (n - 1)

let cons_layer idx layer =
  if layer.lsize = 0 then idx
  else
    let layers, n_layers = rebalance (layer :: idx.layers) (idx.n_layers + 1) in
    { layers; n_layers }

let empty_index = { layers = []; n_layers = 0 }

let index_of_set set =
  if Atom.Set.is_empty set then empty_index
  else begin
    Atomic.incr c_builds;
    ignore (Atomic.fetch_and_add c_built_atoms (Atom.Set.cardinal set));
    { layers = [ layer_of_set set ]; n_layers = 1 }
  end

(* Layer lookups. Candidate enumeration is layer order (newest layer
   first), rows in ascending index order within a layer (see the header
   comment). *)

let rel_buckets idx sid =
  List.filter_map
    (fun l ->
      let bi = bucket_index l sid in
      if bi < 0 then None else Some l.rels.(bi))
    idx.layers

(* Does row [row] of [b] hold exactly [atom]'s arguments? All atoms of a
   bucket share [atom]'s relation, so full id-row equality certifies
   [Atom.equal] — a contiguous int scan, no pointer chasing. *)
let row_is arity (b : bucket) row (atom : Atom.t) =
  let args = atom.Atom.args in
  let base = row * arity in
  let rec go pos =
    pos >= arity
    || (b.ids.(base + pos) = args.(pos).Term.id && go (pos + 1))
  in
  go 0

let layer_mem l atom =
  let rel = Atom.rel atom in
  let bi = bucket_index l (Symbol.id rel) in
  bi >= 0
  &&
  let b = l.rels.(bi) in
  let arity = Symbol.arity rel in
  arity = 0
  ||
  let p = b.posts.(0) in
  let k = find_key p (Atom.arg atom 0).Term.id in
  k >= 0
  &&
  let rec scan i =
    i < p.offs.(k + 1) && (row_is arity b p.rows.(i) atom || scan (i + 1))
  in
  scan p.offs.(k)

(* Does [term] occur (in any position of any fact) under these layers?
   Cold path, used only to maintain a domain across removals. *)
let term_occurs layers (term : Term.t) =
  List.exists
    (fun l ->
      Array.exists
        (fun b -> Array.exists (fun p -> find_key p term.Term.id >= 0) b.posts)
        l.rels)
    layers

(* ------------------------------------------------------------------ *)
(* Fact sets                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  set : Atom.Set.t;
  mutable index : index_state;
  mutable dom : dom_state;
}

and index_state =
  | Unbuilt
  | Built of index
  | Lazy_extend of { base : t; other : t }
      (* Pending disjoint union [base ∪ other]: forced by concatenating
         the two sides' layer stacks, so the delta side's layers are
         built once and shared — and never built at all if this set's
         index is never needed (e.g. a chase's final stage). *)

and dom_state =
  | Dom_unbuilt  (* fold over [set] on first use *)
  | Dom of Term.Set.t
  | Dom_edit of { base : Term.Set.t; added : Atom.Set.t; removed : Atom.Set.t }
      (* An ancestor's domain [base] plus the terms of [added], less
         the terms of [removed] that no longer occur in this set. Holds
         no fact set, so a pending domain keeps no ancestor alive. *)

let of_set set = { set; index = Unbuilt; dom = Dom_unbuilt }
let empty = { set = Atom.Set.empty; index = Unbuilt; dom = Dom Term.Set.empty }
let of_list l = of_set (Atom.Set.of_list l)
let to_set t = t.set
let atoms t = Atom.Set.elements t.set
let cardinal t = Atom.Set.cardinal t.set
let is_empty t = Atom.Set.is_empty t.set
let mem a t = Atom.Set.mem a t.set

let is_indexed t = match t.index with Unbuilt -> false | _ -> true

let rec index t =
  match t.index with
  | Built i -> i
  | Unbuilt ->
      (* Benign race: concurrent forcing computes equal indexes and one
         single-word write wins. The chase engines pre-force indexes of
         shared sets before fanning out, so in practice this runs in the
         coordinator. *)
      let i = index_of_set t.set in
      t.index <- Built i;
      i
  | Lazy_extend { base; other } ->
      let bidx = index base in
      let oidx = index other in
      Atomic.incr c_extends;
      ignore (Atomic.fetch_and_add c_delta_atoms (Atom.Set.cardinal other.set));
      let layers, n_layers =
        rebalance (oidx.layers @ bidx.layers) (oidx.n_layers + bidx.n_layers)
      in
      let i = { layers; n_layers } in
      t.index <- Built i;
      i

let force_index t = ignore (index t)

(* The domain of a set derived from [parent] by adding [added] and
   removing [removed]: pending on the parent's domain when that is known
   or itself pending, else computed from scratch on first use. *)
let derived_dom parent ~added ~removed =
  match parent.dom with
  | Dom base -> Dom_edit { base; added; removed }
  | Dom_edit e ->
      Dom_edit
        {
          base = e.base;
          added = Atom.Set.union e.added added;
          removed = Atom.Set.union e.removed removed;
        }
  | Dom_unbuilt -> Dom_unbuilt

let domain_add_atom dom atom =
  (* Set.add returns the set itself (physically) when the element is
     already present, so the common rediscovered-term case is alloc-free. *)
  List.fold_left (fun d t -> Term.Set.add t d) dom (Atom.args atom)

let domain t =
  match t.dom with
  | Dom d -> d
  | pending ->
      (* Benign race, as for [index]: equal domains, one write wins. *)
      Atomic.incr c_domains;
      let add_terms atoms d =
        Atom.Set.fold (fun a d -> domain_add_atom d a) atoms d
      in
      let d =
        match pending with
        | Dom_unbuilt | Dom _ -> add_terms t.set Term.Set.empty
        | Dom_edit { base; added; removed } ->
            let d = add_terms added base in
            if Atom.Set.is_empty removed then d
            else
              let layers = (index t).layers in
              Atom.Set.fold
                (fun atom dom ->
                  List.fold_left
                    (fun dom term ->
                      if Term.Set.mem term dom && not (term_occurs layers term)
                      then Term.Set.remove term dom
                      else dom)
                    dom (Atom.args atom))
                removed d
      in
      t.dom <- Dom d;
      d

(* [derive ~delta parent set'] : the fact set [set'], with its index
   extended from [parent]'s by consing a frozen layer of the [delta]
   atoms (when the parent is indexed). *)
let derive ~delta parent set' =
  if is_indexed parent then begin
    let idx = index parent in
    Atomic.incr c_extends;
    ignore (Atomic.fetch_and_add c_delta_atoms (Atom.Set.cardinal delta));
    {
      set = set';
      index = Built (cons_layer idx (layer_of_set delta));
      dom = derived_dom parent ~added:delta ~removed:Atom.Set.empty;
    }
  end
  else of_set set'

let add a t =
  if Atom.Set.mem a t.set then t
  else derive ~delta:(Atom.Set.singleton a) t (Atom.Set.add a t.set)

(* The indexed (preferring the larger) side of a union is extended by
   the other's delta; with no index on either side, the union stays
   lazy. *)
let union_sides a b =
  match (is_indexed a, is_indexed b) with
  | true, false -> (a, b)
  | false, true -> (b, a)
  | true, true | false, false ->
      if Atom.Set.cardinal a.set >= Atom.Set.cardinal b.set then (a, b)
      else (b, a)

(* Share the delta side's layers wholesale, and lazily — each delta atom
   is indexed at most once per chase, and not at all when the union's
   index is never consulted (a chase's final stage). *)
let extend base other =
  {
    set = Atom.Set.union base.set other.set;
    index = Lazy_extend { base; other };
    dom = derived_dom base ~added:other.set ~removed:Atom.Set.empty;
  }

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else
    let base, other = union_sides a b in
    if not (is_indexed base) then of_set (Atom.Set.union a.set b.set)
    else if Atom.Set.disjoint a.set b.set then extend base other
    else
      let delta = Atom.Set.diff other.set base.set in
      if Atom.Set.is_empty delta then base
      else derive ~delta base (Atom.Set.union base.set other.set)

(* [union] for callers that know the operands share no atom (the chase
   engine's freshly-derived delta): skips the disjointness walk. The
   precondition is not checked — a violation would double atoms inside
   index buckets (the [set] itself stays correct). *)
let union_disjoint a b =
  if is_empty a then b
  else if is_empty b then a
  else
    let base, other = union_sides a b in
    if not (is_indexed base) then of_set (Atom.Set.union a.set b.set)
    else extend base other

let diff a b =
  let plain () = of_set (Atom.Set.diff a.set b.set) in
  if not (is_indexed a) then plain ()
  else
    let idx = index a in
    let removed = Atom.Set.inter a.set b.set in
    let n_removed = Atom.Set.cardinal removed in
    (* Filtering most of the layers costs more than one lazy rebuild of
       the (small) result: only shrink small deltas. *)
    if n_removed = 0 then a
    else if 4 * n_removed > Atom.Set.cardinal a.set then plain ()
    else begin
      Atomic.incr c_shrinks;
      ignore (Atomic.fetch_and_add c_removed_atoms n_removed);
      (* Rebuild exactly the layers that contain removed atoms; the
         others are shared untouched. *)
      let layers =
        List.filter_map
          (fun l ->
            if not (Atom.Set.exists (fun x -> layer_mem l x) removed) then
              Some l
            else
              let kept =
                Array.fold_left
                  (fun acc (b : bucket) ->
                    Array.fold_left
                      (fun acc atom ->
                        if Atom.Set.mem atom removed then acc
                        else atom :: acc)
                      acc b.atoms)
                  [] l.rels
              in
              match kept with
              | [] -> None
              | _ -> Some (layer_of_list kept (List.length kept)))
          idx.layers
      in
      {
        set = Atom.Set.diff a.set b.set;
        index = Built { layers; n_layers = List.length layers };
        dom = derived_dom a ~added:Atom.Set.empty ~removed;
      }
    end

let remove a t =
  if not (Atom.Set.mem a t.set) then t
  else diff t (of_set (Atom.Set.singleton a))

let inter a b = of_set (Atom.Set.inter a.set b.set)
let subset a b = Atom.Set.subset a.set b.set
let equal a b = Atom.Set.equal a.set b.set
let filter f t = of_set (Atom.Set.filter f t.set)

let signature t =
  Atom.Set.fold (fun a acc -> Symbol.Set.add (Atom.rel a) acc) t.set
    Symbol.Set.empty

let by_rel t rel =
  List.concat_map
    (fun (b : bucket) -> Array.to_list b.atoms)
    (rel_buckets (index t) (Symbol.id rel))

(* The register machine's candidate enumeration: [bound_pos]/[bound_ids]
   hold [nb] (position, term id) constraints in caller-owned scratch
   arrays — no per-node allocation. Rows are visited without the bound
   filter (the caller re-checks every position), layer by layer, newest
   first; the seed constraint is chosen *per layer*, and every layer's
   surviving rows come out in ascending row order whichever slice seeds
   it, so the seed choice never permutes the filtered enumeration. With
   at least two constraints and a non-trivial seed slice, the two
   smallest slices are merge-intersected — ascending row walks, zero
   allocation — before the rows reach the caller. *)
let intersect_min = 8

let iter_join_candidates t rel ~bound_pos ~bound_ids ~nb f =
  let idx = index t in
  let sid = Symbol.id rel in
  if nb = 0 then
    List.iter
      (fun (b : bucket) ->
        for row = 0 to b.n - 1 do
          f b.atoms b.ids row
        done)
      (rel_buckets idx sid)
  else begin
    let probes = ref 0 in
    List.iter
      (fun l ->
        let bi = bucket_index l sid in
        if bi >= 0 then begin
          let b = Array.unsafe_get l.rels bi in
          (* Find the two smallest slices among the constraints; a
             missing key means the layer has no matching fact. *)
          let seed = ref [||] and slo = ref 0 and sn = ref max_int in
          let second = ref [||] and slo2 = ref 0 and sn2 = ref max_int in
          let dead = ref false and c = ref 0 in
          while (not !dead) && !c < nb do
            incr probes;
            let p = b.posts.(bound_pos.(!c)) in
            let k = find_key p bound_ids.(!c) in
            if k < 0 then dead := true
            else begin
              let lo = Array.unsafe_get p.offs k in
              let n = Array.unsafe_get p.offs (k + 1) - lo in
              if n < !sn then begin
                second := !seed;
                slo2 := !slo;
                sn2 := !sn;
                seed := p.rows;
                slo := lo;
                sn := n
              end
              else if n < !sn2 then begin
                second := p.rows;
                slo2 := lo;
                sn2 := n
              end
            end;
            incr c
          done;
          if not !dead then
            if nb >= 2 && !sn >= intersect_min then begin
              (* Merge-intersect the two smallest ascending slices;
                 survivors come out in ascending row order — the
                 canonical per-layer order. *)
              Atomic.incr c_posting_intersections;
              let a = !seed and b2 = !second in
              let ia = !slo + !sn and ib = !slo2 + !sn2 in
              let i = ref !slo and j = ref !slo2 in
              while !i < ia && !j < ib do
                let ra = Array.unsafe_get a !i
                and rb = Array.unsafe_get b2 !j in
                if ra < rb then incr i
                else if rb < ra then incr j
                else begin
                  f b.atoms b.ids ra;
                  incr i;
                  incr j
                end
              done
            end
            else begin
              let rows = !seed in
              for i = !slo to !slo + !sn - 1 do
                f b.atoms b.ids (Array.unsafe_get rows i)
              done
            end
        end)
      idx.layers;
    ignore (Atomic.fetch_and_add c_posting_probes !probes)
  end

(* Every atom with [term] in some argument position, in [Atom.Set]
   order (the order a filter over [atoms] would produce). One slice
   lookup per (layer, relation, position) replaces the full scan callers
   like [Engine.birth_atom] used to pay per term. *)
let atoms_with_term t (term : Term.t) =
  let idx = index t in
  let acc = ref Atom.Set.empty in
  List.iter
    (fun l ->
      Array.iter
        (fun (b : bucket) ->
          Array.iter
            (fun p ->
              let k = find_key p term.Term.id in
              if k >= 0 then
                for i = p.offs.(k) to p.offs.(k + 1) - 1 do
                  acc := Atom.Set.add b.atoms.(p.rows.(i)) !acc
                done)
            b.posts)
        l.rels)
    idx.layers;
  Atom.Set.elements !acc

let restrict t allowed =
  filter
    (fun a -> List.for_all (fun term -> Term.Set.mem term allowed) (Atom.args a))
    t

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Atom.pp) (atoms t)
