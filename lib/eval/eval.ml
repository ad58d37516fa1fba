open Logic

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type counters = { plans : int; seeks : int; gallops : int; emitted : int }

let c_plans = Atomic.make 0
let c_seeks = Atomic.make 0
let c_gallops = Atomic.make 0
let c_emitted = Atomic.make 0

let counters () =
  {
    plans = Atomic.get c_plans;
    seeks = Atomic.get c_seeks;
    gallops = Atomic.get c_gallops;
    emitted = Atomic.get c_emitted;
  }

let reset_counters () =
  Atomic.set c_plans 0;
  Atomic.set c_seeks 0;
  Atomic.set c_gallops 0;
  Atomic.set c_emitted 0

let tuple_compare = List.compare Term.compare

(* ------------------------------------------------------------------ *)
(* Plan compilation                                                    *)
(* ------------------------------------------------------------------ *)

(* A compiled pattern atom: the key order [kpos] is a permutation of the
   argument positions — rigid slots (constants, init-bound variables,
   closed functional terms) first, then variable slots by elimination
   level. Rows of the relation, sorted lexicographically along [kpos],
   make every frontier of the join a contiguous range. *)
type patom = {
  rel : Symbol.t;
  arity : int;
  kpos : int array;
  klev : int array;  (* level bound at key column k; -1 = rigid *)
  kid : int array;  (* term id expected at rigid key columns; -1 else *)
}

type compiled = {
  nfree : int;
  out_levels : int array;  (* answer slot -> its level in the order *)
  nvars : int;
  order : Term.t array;  (* level -> variable *)
  patoms : patom array;
  parts : int array array;  (* level -> indices of atoms binding it *)
}

(* A plan keeps the pieces the register machine needs, so queries the
   leapfrog compiler declines ([p_compiled = None]) run on it instead. *)
type plan = {
  p_init : Term.t Term.Map.t;
  p_flexible : Term.Set.t;
  p_pattern : Atom.t list;
  p_out : Term.t list;  (* unbound answer variables, emission order *)
  p_compiled : compiled option;
}

exception Not_compilable

let compile_body ~init ~flexible ~out atoms =
  try
    if atoms = [] then raise Not_compilable;
    (* Classify each argument once: [`Rigid id] matches by hash-consed
       identity, [`Var v] binds at [v]'s level. An argument that is
       neither (a functional term with a bindable variable inside) needs
       structural matching the sorted join cannot do — decline. *)
    let classify (t : Term.t) =
      match Term.Map.find_opt t init with
      | Some image -> `Rigid image.Term.id
      | None ->
          if Term.Set.mem t flexible then `Var t
          else if
            List.exists (fun v -> Term.Set.mem v flexible) (Term.vars t)
          then raise Not_compilable
          else `Rigid t.Term.id
    in
    let classified =
      List.map
        (fun a -> (a, List.map classify (Atom.args a)))
        atoms
    in
    (* Occurrence stats (count, first occurrence) per variable, plus the
       atoms each variable appears in, for the connectivity heuristic. *)
    let occ : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
    let var_atoms : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    let tick = ref 0 in
    List.iteri
      (fun ai (_, args) ->
        List.iter
          (function
            | `Var (v : Term.t) ->
                incr tick;
                let n, first =
                  Option.value ~default:(0, !tick)
                    (Hashtbl.find_opt occ v.Term.id)
                in
                Hashtbl.replace occ v.Term.id (n + 1, first);
                let atoms_of =
                  Option.value ~default:[]
                    (Hashtbl.find_opt var_atoms v.Term.id)
                in
                if not (List.mem ai atoms_of) then
                  Hashtbl.replace var_atoms v.Term.id (ai :: atoms_of)
            | `Rigid _ -> ())
          args)
      classified;
    (* An answer variable that never occurs as a direct argument is not
       coverable by the join. *)
    List.iter
      (fun (v : Term.t) ->
        if not (Hashtbl.mem occ v.Term.id) then raise Not_compilable)
      out;
    let all_vars =
      List.concat_map
        (fun (_, args) ->
          List.filter_map
            (function `Var (v : Term.t) -> Some v | `Rigid _ -> None)
            args)
        classified
      |> List.sort_uniq Term.compare
    in
    (* Connectivity-greedy elimination order: start from the
       most-occurring variable, then always pick a variable sharing an
       atom with the already-ordered prefix (most shared atoms first,
       then occurrence count, then first occurrence). An order that
       chased answer variables first instead would enumerate cross
       products of unconnected candidates — |V|^2 work on a two-step
       path query whose join has |E| rows. *)
    let chosen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let touched : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    (* atom index -> touched once one of its variables is ordered *)
    let shared (v : Term.t) =
      List.fold_left
        (fun n ai -> if Hashtbl.mem touched ai then n + 1 else n)
        0
        (Hashtbl.find var_atoms v.Term.id)
    in
    let pick () =
      let best = ref None in
      List.iter
        (fun (v : Term.t) ->
          if not (Hashtbl.mem chosen v.Term.id) then begin
            let n, first = Hashtbl.find occ v.Term.id in
            let key = (shared v, n, -first) in
            match !best with
            | Some (bkey, _) when compare key bkey <= 0 -> ()
            | _ -> best := Some (key, v)
          end)
        all_vars;
      match !best with
      | Some (_, v) ->
          Hashtbl.replace chosen v.Term.id ();
          List.iter
            (fun ai -> Hashtbl.replace touched ai ())
            (Hashtbl.find var_atoms v.Term.id);
          v
      | None -> assert false
    in
    let order = Array.init (List.length all_vars) (fun _ -> pick ()) in
    let nvars = Array.length order in
    let nfree = List.length out in
    let level : (int, int) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun i (v : Term.t) -> Hashtbl.replace level v.Term.id i)
      order;
    let patoms =
      Array.of_list
        (List.map
           (fun (a, args) ->
             let arity = Atom.arity a in
             let args = Array.of_list args in
             let keys =
               Array.init arity (fun pos ->
                   match args.(pos) with
                   | `Rigid id -> (-1, pos, id)
                   | `Var (v : Term.t) ->
                       (Hashtbl.find level v.Term.id, pos, -1))
             in
             Array.sort
               (fun (l1, p1, _) (l2, p2, _) ->
                 if l1 <> l2 then Int.compare l1 l2 else Int.compare p1 p2)
               keys;
             {
               rel = Atom.rel a;
               arity;
               kpos = Array.map (fun (_, p, _) -> p) keys;
               klev = Array.map (fun (l, _, _) -> l) keys;
               kid = Array.map (fun (_, _, id) -> id) keys;
             })
           classified)
    in
    let parts =
      Array.init nvars (fun lev ->
          let ps = ref [] in
          Array.iteri
            (fun i pa ->
              if Array.exists (fun l -> l = lev) pa.klev then
                ps := i :: !ps)
            patoms;
          Array.of_list (List.rev !ps))
    in
    if Array.exists (fun ps -> Array.length ps = 0) parts then
      raise Not_compilable;
    let out_levels =
      Array.of_list
        (List.map (fun (v : Term.t) -> Hashtbl.find level v.Term.id) out)
    in
    Some { nfree; out_levels; nvars; order; patoms; parts }
  with Not_compilable -> None

let compile_pieces ~init ~flexible ~free atoms =
  let out = List.filter (fun v -> not (Term.Map.mem v init)) free in
  {
    p_init = init;
    p_flexible = flexible;
    p_pattern = atoms;
    p_out = out;
    p_compiled = compile_body ~init ~flexible ~out atoms;
  }

module Plan = struct
  type t = plan

  let compile ?(init = Term.Map.empty) q =
    compile_pieces ~init ~flexible:(Cq.var_set q) ~free:(Cq.free q)
      (Cq.atoms q)

  let compiled p = p.p_compiled <> None

  let order p =
    match p.p_compiled with
    | Some c -> Array.to_list c.order
    | None -> []

  let pp ppf p =
    match p.p_compiled with
    | None -> Fmt.pf ppf "<legacy plan: %d atoms>" (List.length p.p_pattern)
    | Some c ->
        Fmt.pf ppf "<leapfrog plan: %d atoms, order [%a], %d answer slots>"
          (Array.length c.patoms)
          Fmt.(array ~sep:(any " ") Term.pp)
          c.order c.nfree
end

(* ------------------------------------------------------------------ *)
(* Prepared instances: sorted column views                             *)
(* ------------------------------------------------------------------ *)

(* The rows of the row-major matrix [data] ([width] ids per row) in
   lexicographic order along the columns [cols], as a new row-major
   matrix holding just those columns, in that order. *)
let sort_rows data ~width cols =
  let n = if width = 0 then 0 else Array.length data / width in
  let nk = Array.length cols in
  let ord = Array.init n Fun.id in
  (* a loop, not a recursive closure: the comparator must not allocate *)
  Array.stable_sort
    (fun a b ->
      let c = ref 0 and k = ref 0 in
      while !c = 0 && !k < nk do
        c :=
          Int.compare
            data.((a * width) + cols.(!k))
            data.((b * width) + cols.(!k));
        incr k
      done;
      !c)
    ord;
  let out = Array.make (n * nk) 0 in
  Array.iteri
    (fun r row ->
      for k = 0 to nk - 1 do
        out.((r * nk) + k) <- data.((row * width) + cols.(k))
      done)
    ord;
  out

module Prepared = struct
  type t = {
    fs : Fact_set.t;
    lock : Mutex.t;
        (* serializes the lazy builds below, so one view can be shared
           across pool workers; the finished arrays are read-only *)
    rows : (int, int array) Hashtbl.t Lazy.t;
        (* Symbol.id -> row-major argument ids, rows in [Atom.compare]
           order; built for every relation at once, forced under [lock] *)
    views : (string, int array) Hashtbl.t;
        (* (Symbol.id, kpos) -> the rows sorted along kpos, columns
           permuted into key order *)
  }

  (* One pass over the atom set. [Atom.compare] orders atoms by relation,
     then by argument id, so each relation is one contiguous run and its
     rows arrive sorted lexicographically: the identity key order needs
     no sort. A nullary fact is one row holding a dummy 0. *)
  let build_rows fs =
    let tbl = Hashtbl.create 16 in
    let buf = ref (Array.make 1024 0) and n = ref 0 in
    let push id =
      if !n = Array.length !buf then begin
        let bigger = Array.make (2 * !n) 0 in
        Array.blit !buf 0 bigger 0 !n;
        buf := bigger
      end;
      !buf.(!n) <- id;
      incr n
    in
    let current = ref (-1) in
    let flush () =
      if !current >= 0 then
        Hashtbl.replace tbl !current (Array.sub !buf 0 !n);
      n := 0
    in
    Atom.Set.iter
      (fun a ->
        let rel = Symbol.id (Atom.rel a) in
        if rel <> !current then begin
          flush ();
          current := rel
        end;
        let arity = Atom.arity a in
        if arity = 0 then push 0
        else
          for p = 0 to arity - 1 do
            push (Atom.arg a p).Term.id
          done)
      (Fact_set.to_set fs);
    flush ();
    tbl

  let make fs =
    {
      fs;
      lock = Mutex.create ();
      rows = lazy (build_rows fs);
      views = Hashtbl.create 16;
    }

  let fact_set t = t.fs

  (* The rows of [rel], sorted lexicographically along [kpos] and stored
     row-major with their columns in key order ([width] = max arity 1
     ids per row). *)
  let view t rel arity kpos =
    let key =
      String.concat ","
        (string_of_int (Symbol.id rel)
        :: Array.to_list (Array.map string_of_int kpos))
    in
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.views key with
    | Some v -> v
    | None ->
        let ids =
          Option.value ~default:[||]
            (Hashtbl.find_opt (Lazy.force t.rows) (Symbol.id rel))
        in
        let v =
          if Array.for_all2 ( = ) kpos (Array.init arity Fun.id) then ids
          else sort_rows ids ~width:(max arity 1) kpos
        in
        Hashtbl.replace t.views key v;
        v
end

(* Prepared views are cached per fact set (physical identity, a small
   move-to-front LRU): repeated queries against one instance — the
   answer pipeline's evaluate-then-compare passes, repeated CQ calls on
   a chase result, the benchmark's A/B reps — amortize the sorted-view
   build exactly as the register machine amortizes its join index
   inside [Fact_set]. Small sets skip the cache: their build is cheaper than
   the eviction pressure they would put on the million-fact entries
   (containment probes churn through thousands of tiny targets). *)
let prepared_cache_max = 4
let prepared_cache_min_facts = 4096
let prepared_cache : (Fact_set.t * Prepared.t) list ref = ref []
let prepared_lock = Mutex.create ()

let prepared_for fs =
  if Fact_set.cardinal fs < prepared_cache_min_facts then Prepared.make fs
  else
    Mutex.protect prepared_lock (fun () ->
        match List.find_opt (fun (k, _) -> k == fs) !prepared_cache with
        | Some (_, p) ->
            prepared_cache :=
              (fs, p) :: List.filter (fun (k, _) -> k != fs) !prepared_cache;
            p
        | None ->
            let p = Prepared.make fs in
            prepared_cache :=
              (fs, p)
              :: List.filteri
                   (fun i _ -> i < prepared_cache_max - 1)
                   !prepared_cache;
            p)

(* ------------------------------------------------------------------ *)
(* The leapfrog join                                                   *)
(* ------------------------------------------------------------------ *)

exception Trip
exception Found

type cursor = {
  c_rows : int array;  (* a view: sorted rows, columns in key order *)
  c_width : int;
  c_klev : int array;
  c_kid : int array;
  c_nk : int;
  mutable lo : int;
  mutable hi : int;  (* current frontier: rows lo..hi-1 *)
  mutable depth : int;  (* key columns consumed by outer levels *)
}

type rt = { guard : Guard.t option; mutable steps : int; mutable gallops : int }

let cval cur k r = cur.c_rows.((r * cur.c_width) + k)

(* First index in [cur.lo, cur.hi) whose column-[k] value is >= x:
   exponential probe from the left edge, then binary search inside the
   overshot octave. This is the only data access of the join. *)
let seek rt cur k x =
  rt.steps <- rt.steps + 1;
  if rt.steps land Guard.poll_mask = 0 then
    (match rt.guard with
    | Some g -> if Guard.check g <> None then raise Trip
    | None -> ());
  let lo = cur.lo and hi = cur.hi in
  if lo >= hi || cval cur k lo >= x then lo
  else begin
    let step = ref 1 in
    while lo + !step < hi && cval cur k (lo + !step) < x do
      rt.gallops <- rt.gallops + 1;
      step := !step lsl 1
    done;
    let l = ref (lo + (!step lsr 1)) and h = ref (min hi (lo + !step)) in
    (* invariant: cval !l < x; !h = hi or cval !h >= x *)
    while !h - !l > 1 do
      let m = (!l + !h) / 2 in
      if cval cur k m < x then l := m else h := m
    done;
    !h
  end

(* Consume the rigid key prefix; false when the atom has no matching
   rows (a constant absent from the instance, or an empty relation). *)
let narrow_rigid rt cur =
  let ok = ref (cur.lo < cur.hi) in
  while !ok && cur.depth < cur.c_nk && cur.c_klev.(cur.depth) = -1 do
    let x = cur.c_kid.(cur.depth) in
    let l = seek rt cur cur.depth x in
    cur.lo <- l;
    if l < cur.hi && cval cur cur.depth l = x then begin
      cur.hi <- seek rt cur cur.depth (x + 1);
      cur.depth <- cur.depth + 1
    end
    else ok := false
  done;
  !ok && cur.lo < cur.hi

(* Enumerate the join of [c] in elimination order, calling [emit] with
   [vals] (level -> term id) filled in for every completed row. Level
   [lev] intersects the participating atoms' frontiers on their current
   key column, and for each common value [x] narrows every participant
   through all its columns at this level (a variable repeated inside an
   atom adds extra columns) before descending. Levels past the last
   answer variable are purely existential: one witness settles them, so
   such a level stops at the first value whose subtree completed a row.
   Each level saves its participants' frontiers into its own scratch
   array, allocated once per run: the recursion allocates nothing. *)
let enumerate rt c cursors vals emit =
  let suffix_start =
    Array.fold_left (fun m lev -> max m (lev + 1)) 0 c.out_levels
  in
  let saves =
    Array.map (fun ps -> Array.make (3 * Array.length ps) 0) c.parts
  in
  (* [level lev] returns whether a suffix level stopped at a witness. *)
  let rec level lev =
    if lev >= c.nvars then begin
      emit vals;
      true
    end
    else begin
      let ps = c.parts.(lev) in
      let np = Array.length ps in
      let save = saves.(lev) in
      let exhausted = ref false in
      for j = 0 to np - 1 do
        let cur = cursors.(ps.(j)) in
        save.(3 * j) <- cur.lo;
        save.((3 * j) + 1) <- cur.hi;
        save.((3 * j) + 2) <- cur.depth;
        if cur.lo >= cur.hi then exhausted := true
      done;
      let stop = ref false in
      while (not !stop) && not !exhausted do
        (* find the next common value across the np frontiers *)
        let c0 = cursors.(ps.(0)) in
        let x = ref (cval c0 c0.depth c0.lo) in
        let matched = ref 1 and idx = ref (1 mod np) in
        while !matched < np && not !exhausted do
          let cur = cursors.(ps.(!idx)) in
          let r = seek rt cur cur.depth !x in
          cur.lo <- r;
          if r >= cur.hi then exhausted := true
          else begin
            let v = cval cur cur.depth r in
            if v = !x then incr matched
            else begin
              x := v;
              matched := 1
            end
          end;
          idx := (!idx + 1) mod np
        done;
        if not !exhausted then begin
          let x = !x in
          (* narrow every participant through its columns at this level *)
          let ok = ref true in
          let i = ref 0 in
          while !ok && !i < np do
            let cur = cursors.(ps.(!i)) in
            while
              !ok && cur.depth < cur.c_nk && cur.c_klev.(cur.depth) = lev
            do
              let l = seek rt cur cur.depth x in
              cur.lo <- l;
              if l < cur.hi && cval cur cur.depth l = x then begin
                cur.hi <- seek rt cur cur.depth (x + 1);
                cur.depth <- cur.depth + 1
              end
              else ok := false
            done;
            incr i
          done;
          if !ok then begin
            vals.(lev) <- x;
            if level (lev + 1) && lev >= suffix_start then stop := true
          end;
          (* rewind the level's narrowing and advance past x *)
          for j = 0 to np - 1 do
            let cur = cursors.(ps.(j)) in
            cur.depth <- save.((3 * j) + 2);
            cur.hi <- save.((3 * j) + 1);
            if not !stop then begin
              cur.lo <- seek rt cur cur.depth (x + 1);
              if cur.lo >= cur.hi then exhausted := true
            end
          done
        end
      done;
      for j = 0 to np - 1 do
        let cur = cursors.(ps.(j)) in
        cur.lo <- save.(3 * j);
        cur.hi <- save.((3 * j) + 1);
        cur.depth <- save.((3 * j) + 2)
      done;
      !stop
    end
  in
  ignore (level 0)

(* Open the plan's cursors on [prepared]; [None] when some atom has no
   row matching its rigid key prefix, so the join is empty. *)
let open_cursors rt c prepared =
  let cursors =
    Array.map
      (fun pa ->
        let rows = Prepared.view prepared pa.rel pa.arity pa.kpos in
        let width = max pa.arity 1 in
        {
          c_rows = rows;
          c_width = width;
          c_klev = pa.klev;
          c_kid = pa.kid;
          c_nk = Array.length pa.kpos;
          lo = 0;
          hi = Array.length rows / width;
          depth = 0;
        })
      c.patoms
  in
  if Array.for_all (narrow_rigid rt) cursors then Some cursors else None

(* Run the join of [c] on [prepared], calling [emit] per completed row.
   A guard trip ends the enumeration early; any other exception [emit]
   raises propagates, after the run's counts are added up either way. *)
let join ?guard c prepared emit =
  Atomic.incr c_plans;
  let rt = { guard; steps = 0; gallops = 0 } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Atomic.fetch_and_add c_seeks rt.steps);
      ignore (Atomic.fetch_and_add c_gallops rt.gallops))
    (fun () ->
      try
        match open_cursors rt c prepared with
        | None -> ()
        | Some cursors -> enumerate rt c cursors (Array.make c.nvars 0) emit
      with Trip -> ())

(* ------------------------------------------------------------------ *)
(* Emission: a flat, deduplicating row buffer                          *)
(* ------------------------------------------------------------------ *)

(* Distinct answer rows, [width] term ids each, stored row-major in one
   growable int array and deduplicated on arrival through an
   open-addressing table of row numbers — no list and no boxed key per
   tuple. *)
module Rowset = struct
  type t = {
    width : int;
    mutable data : int array;  (* rows 0..n-1, then scratch *)
    mutable n : int;  (* rows *)
    mutable slots : int array;  (* row number + 1; 0 = empty *)
  }

  let create width =
    {
      width;
      data = Array.make (64 * width) 0;
      n = 0;
      slots = Array.make 64 0;
    }

  (* The slot of [slots] holding a row equal to the one at [base] in
     [t.data], or the empty slot where that row belongs. *)
  let slot t slots base =
    let w = t.width and data = t.data and mask = Array.length slots - 1 in
    let h = ref 0 in
    for k = 0 to w - 1 do
      h := (!h * 0x2f0b3c65) + data.(base + k)
    done;
    let i = ref ((!h lxor (!h lsr 29)) land mask) and found = ref false in
    while (not !found) && slots.(!i) <> 0 do
      let other = (slots.(!i) - 1) * w in
      let k = ref 0 in
      while !k < w && data.(other + !k) = data.(base + !k) do
        incr k
      done;
      if !k = w then found := true else i := (!i + 1) land mask
    done;
    !i

  (* Add the row [vals.(pos.(0)), ..., vals.(pos.(width - 1))]; false
     when it is already present. The row is written to the scratch space
     past the last row first and kept only if it is new. *)
  let add t vals pos =
    let w = t.width in
    if (t.n + 1) * w > Array.length t.data then begin
      let bigger = Array.make (2 * Array.length t.data) 0 in
      Array.blit t.data 0 bigger 0 (t.n * w);
      t.data <- bigger
    end;
    let base = t.n * w in
    for k = 0 to w - 1 do
      t.data.(base + k) <- vals.(pos.(k))
    done;
    let i = slot t t.slots base in
    if t.slots.(i) <> 0 then false
    else begin
      t.n <- t.n + 1;
      t.slots.(i) <- t.n;
      if 2 * t.n > Array.length t.slots then begin
        let slots = Array.make (2 * Array.length t.slots) 0 in
        for r = 0 to t.n - 1 do
          slots.(slot t slots (r * w)) <- r + 1
        done;
        t.slots <- slots
      end;
      true
    end

  (* The rows as term tuples, in [tuple_compare] order. *)
  let to_tuples t =
    let w = t.width in
    let rows =
      sort_rows (Array.sub t.data 0 (t.n * w)) ~width:w (Array.init w Fun.id)
    in
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      let tuple = ref [] in
      for k = w - 1 downto 0 do
        tuple := Term.of_id rows.((i * w) + k) :: !tuple
      done;
      acc := !tuple :: !acc
    done;
    !acc
end

(* Run a compiled plan: enumerate the full join and project each row onto
   the answer slots, deduplicating as rows arrive (the elimination order
   is chosen for join locality, not for emission grouping, so the same
   projection can recur). One fuel unit is drawn per distinct tuple; the
   seek counter polls the guard for deadline/cancellation, and a trip
   flushes the rows found so far. Tuples come back sorted and distinct —
   the same contract as [Cq.answers]. *)
let run_compiled ?guard c prepared =
  let rows = Rowset.create c.nfree in
  join ?guard c prepared (fun vals ->
      if Rowset.add rows vals c.out_levels then
        match guard with Some g -> ignore (Guard.spend g 1) | None -> ());
  ignore (Atomic.fetch_and_add c_emitted rows.Rowset.n);
  Rowset.to_tuples rows

(* Existence: the join stops at its first row and buffers nothing. *)
let exists_compiled c prepared =
  match join c prepared (fun _ -> raise Found) with
  | () -> false
  | exception Found ->
      Atomic.incr c_emitted;
      true

(* ------------------------------------------------------------------ *)
(* Legacy execution: the register machine, for uncompilable plans     *)
(* ------------------------------------------------------------------ *)

let legacy_problem p target =
  Homomorphism.make ~init:p.p_init ~flexible:p.p_flexible
    ~pattern:p.p_pattern ~target ()

let run_legacy ?guard p prepared =
  let seen = ref 0 in
  let acc = ref [] in
  (try
     Homomorphism.iter (legacy_problem p (Prepared.fact_set prepared))
       (fun m ->
         incr seen;
         (match guard with
         | Some g ->
             if !seen land Guard.poll_mask = 0 && Guard.check g <> None
             then raise Trip
         | None -> ());
         acc := List.map (fun v -> Term.Map.find v m) p.p_out :: !acc)
   with Trip -> ());
  List.sort_uniq tuple_compare !acc

let run_plan ?guard p prepared =
  match p.p_compiled with
  | Some c -> run_compiled ?guard c prepared
  | None -> run_legacy ?guard p prepared

let outcome_of ?guard tuples =
  match guard with
  | Some g -> Guard.outcome g ~complete:tuples ~partial:tuples
  | None -> Guard.Complete tuples

let run ?guard p prepared = outcome_of ?guard (run_plan ?guard p prepared)

(* Boolean existence: an empty answer prefix, and the join stops at the
   first witness. The legacy arm uses the engine's own early-exit
   [exists]. *)
let exists_pieces ~init ~flexible atoms prepared =
  let p = compile_pieces ~init ~flexible ~free:[] atoms in
  match p.p_compiled with
  | Some c -> exists_compiled c prepared
  | None -> Homomorphism.exists (legacy_problem p (Prepared.fact_set prepared))

(* ------------------------------------------------------------------ *)
(* CQ / UCQ entry points                                               *)
(* ------------------------------------------------------------------ *)

let answers_outcome ?guard q f =
  run ?guard (Plan.compile q) (prepared_for f)

let answers ?guard q f =
  match answers_outcome ?guard q f with
  | Guard.Complete ts -> ts
  | Guard.Exhausted { partial; _ } -> partial

let holds q f tuple =
  if List.length tuple <> List.length (Cq.free q) then
    invalid_arg "Eval.holds: answer tuple arity mismatch";
  let init =
    List.fold_left2
      (fun m v a -> Term.Map.add v a m)
      Term.Map.empty (Cq.free q) tuple
  in
  exists_pieces ~init ~flexible:(Cq.var_set q) (Cq.atoms q)
    (prepared_for f)

let boolean_holds q f =
  exists_pieces ~init:Term.Map.empty ~flexible:(Cq.var_set q) (Cq.atoms q)
    (prepared_for f)

(* The sorted-distinct union of two sorted-distinct tuple lists. *)
let union_sorted a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
        let c = tuple_compare x y in
        if c < 0 then go (x :: acc) a' b
        else if c > 0 then go (y :: acc) a b'
        else go (x :: acc) a' b'
  in
  go [] a b

(* Merge k sorted-distinct lists pairwise, in log k rounds. *)
let rec union_all = function
  | [] -> []
  | [ l ] -> l
  | ls ->
      let rec pairs = function
        | a :: b :: rest -> union_sorted a b :: pairs rest
        | rest -> rest
      in
      union_all (pairs ls)

(* Every plan returns its tuples sorted and distinct, so a one-disjunct
   union is that plan's output and a larger one is a k-way merge. *)
let ucq_answers_outcome ?guard u f =
  let prepared = prepared_for f in
  outcome_of ?guard
    (union_all
       (List.map
          (fun d -> run_plan ?guard (Plan.compile d) prepared)
          (Ucq.disjuncts u)))

let ucq_answers ?guard u f =
  match ucq_answers_outcome ?guard u f with
  | Guard.Complete ts -> ts
  | Guard.Exhausted { partial; _ } -> partial

let ucq_holds u f tuple =
  let prepared = prepared_for f in
  Ucq.exists
    (fun d ->
      List.length tuple = List.length (Cq.free d)
      &&
      let init =
        List.fold_left2
          (fun m v a -> Term.Map.add v a m)
          Term.Map.empty (Cq.free d) tuple
      in
      exists_pieces ~init ~flexible:(Cq.var_set d) (Cq.atoms d) prepared)
    u

let ucq_boolean_holds u f =
  let prepared = prepared_for f in
  Ucq.exists
    (fun d ->
      exists_pieces ~init:Term.Map.empty ~flexible:(Cq.var_set d)
        (Cq.atoms d) prepared)
    u

(* ------------------------------------------------------------------ *)
(* Chase trigger matching (moved verbatim from Chase.Engine)           *)
(* ------------------------------------------------------------------ *)

module Match = struct
  (* The semi-naive trigger enumeration of a rule splits into independent
     rounds: one per body-atom position seeded by a delta fact, one per
     domain-variable position seeded by a new domain element, plus the
     one-shot firing of fully ground rules. Each round is a self-contained
     homomorphism search over read-only fact sets, which is exactly the
     unit of work the parallel engine distributes across domains. *)
  type part = Delta_seed of int | Dom_seed of int | Ground

  let rule_parts rule ~old_is_empty =
    let m = List.length (Tgd.body rule) in
    let d = List.length (Tgd.dom_vars rule) in
    let delta_parts = List.init m (fun k -> Delta_seed k) in
    if d > 0 then delta_parts @ List.init d (fun i -> Dom_seed i)
    else if m = 0 && old_is_empty then
      (* A fully ground rule like (loop): fires exactly once, at stage 1. *)
      delta_parts @ [ Ground ]
    else delta_parts

  (* The domain lists [part_triggers] reads for [part], exactly as its
     [domain_bindings] below pick them. *)
  let dom_reads rule part =
    let d = List.length (Tgd.dom_vars rule) in
    let if_ b l = if b then [ l ] else [] in
    match part with
    | Delta_seed _ -> if_ (d > 0) `Full
    | Dom_seed i -> (`New :: if_ (i > 0) `Old) @ if_ (i < d - 1) `Full
    | Ground -> []

  (* Enumerate one round of the triggers of [rule] that use at least one
     "new" ingredient: a body atom in [delta], or a domain-variable binding
     to a new domain element. The partition (first delta body atom / first
     new domain element) makes the enumeration exact, without duplicates.
     NB: the production order names fresh nulls — these searches stay on
     the register-machine engine whose order the differentials pin. *)
  let part_triggers rule part ~old_facts ~delta ~full ~old_dom_list
      ~new_dom_list ~full_dom_list f =
    let body = Array.of_list (Tgd.body rule) in
    let m = Array.length body in
    let dom_vars = Tgd.dom_vars rule in
    let flexible = Term.Set.of_list (Tgd.body_vars rule) in
    match part with
    | Delta_seed k ->
        let pattern =
          List.init m (fun j ->
              let target =
                if j = k then delta else if j < k then old_facts else full
              in
              (body.(j), target))
        in
        let domain_bindings =
          List.map (fun v -> (v, full_dom_list)) dom_vars
        in
        Homomorphism.iter_multi ~flexible ~pattern ~domain_bindings f
    | Dom_seed i ->
        let pattern =
          Array.to_list (Array.map (fun a -> (a, old_facts)) body)
        in
        let domain_bindings =
          List.mapi
            (fun j v ->
              let pool =
                if j = i then new_dom_list
                else if j < i then old_dom_list
                else full_dom_list
              in
              (v, pool))
            dom_vars
        in
        Homomorphism.iter_multi ~flexible ~pattern ~domain_bindings f
    | Ground -> f Term.Map.empty
end

(* ------------------------------------------------------------------ *)
(* Containment probe registration                                      *)
(* ------------------------------------------------------------------ *)

(* Plan-time engine selection for boolean existence probes: below this
   target size the sorted-view build costs more than the whole
   register-machine search (containment targets are query bodies of a
   few dozen atoms), so the plan delegates; at or above it the leapfrog
   join runs. Either engine decides the same verdict. *)
let probe_leapfrog_min = 64

let () =
  Eval_hook.register (fun ~init ~flexible ~pattern ~target ->
      let p = compile_pieces ~init ~flexible ~free:[] pattern in
      match p.p_compiled with
      | None -> None
      | Some c ->
          if Fact_set.cardinal target < probe_leapfrog_min then
            Some (Homomorphism.exists (legacy_problem p target))
          else Some (exists_compiled c (prepared_for target)))
