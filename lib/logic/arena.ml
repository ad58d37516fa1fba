(* The flat atom arena: an append-only, Bigarray-backed store in which
   every interned atom lives as one contiguous *span* of a flat [int]
   array — [sym_id; arity; arg0_id; ...; arg(k-1)_id] — with O(1)
   id <-> span lookup in both directions. Atom ids are dense (0, 1, 2,
   ...in interning order), so any argument decodes with two array reads,
   never touching a boxed [Atom.t]. The boxed atom is kept in a parallel
   id-indexed table for [to_atom].

   Nothing in the library interns into it ([Fact_set] keeps argument ids
   in its own slabs); [global] exists for tooling that reads its [stats],
   and arenas are first-class ([create]) so the unit tests can exercise
   growth and decoding from a known-empty state.

   Concurrency: interning takes the arena's mutex. Readers are
   lock-free: a span is fully written before its id escapes the intern
   call, and growth republishes a fresh storage array rather than
   resizing in place. *)

type big = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let big_create n : big = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout n

type t = {
  lock : Mutex.t;
  mutable data : big;  (* concatenated spans *)
  mutable used : int;  (* ints of [data] in use *)
  mutable offs : big;  (* atom id -> span base offset in [data] *)
  mutable atoms : Atom.t option array;  (* atom id -> boxed atom *)
  mutable n : int;  (* interned atoms; ids are [0, n) *)
  index : (int, int list) Hashtbl.t;  (* span hash -> candidate atom ids *)
}

let create ?(initial = 1024) () =
  let initial = max 16 initial in
  {
    lock = Mutex.create ();
    data = big_create initial;
    used = 0;
    offs = big_create (max 16 (initial / 4));
    atoms = Array.make (max 16 (initial / 4)) None;
    n = 0;
    index = Hashtbl.create 1024;
  }

let global = create ~initial:(1 lsl 16) ()

(* FNV-style fold over the relation id and argument term ids — the same
   ingredients the span stores, so equal spans always collide. *)
let span_hash sid (args : Term.t array) =
  Array.fold_left
    (fun h (t : Term.t) -> (h * 0x01000193) lxor t.Term.id)
    (0x811c9dc5 lxor sid) args
  land max_int

let spans a = a.n
let ints a = a.used

type stats = { spans : int; ints : int; bytes : int }

let stats a = { spans = a.n; ints = a.used; bytes = a.used * 8 }

let base a id = Bigarray.Array1.unsafe_get a.offs id
let rel_id a id = Bigarray.Array1.unsafe_get a.data (base a id)
let arity a id = Bigarray.Array1.unsafe_get a.data (base a id + 1)
let arg a id pos = Bigarray.Array1.unsafe_get a.data (base a id + 2 + pos)

let to_atom a id =
  if id < 0 || id >= a.n then invalid_arg "Arena.to_atom: unknown atom id"
  else
    match a.atoms.(id) with
    | Some atom -> atom
    | None -> invalid_arg "Arena.to_atom: unknown atom id"

(* Does span [id] hold exactly (sid, args)? Contiguous int compares. *)
let span_is a id sid (args : Term.t array) =
  let k = Array.length args in
  let b = base a id in
  let data = a.data in
  Bigarray.Array1.unsafe_get data b = sid
  && Bigarray.Array1.unsafe_get data (b + 1) = k
  &&
  let rec go pos =
    pos >= k
    || Bigarray.Array1.unsafe_get data (b + 2 + pos)
       = args.(pos).Term.id
       && go (pos + 1)
  in
  go 0

let grow_data a need =
  if a.used + need > Bigarray.Array1.dim a.data then begin
    let cap = max (2 * Bigarray.Array1.dim a.data) (a.used + need) in
    let data' = big_create cap in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub a.data 0 a.used)
      (Bigarray.Array1.sub data' 0 a.used);
    a.data <- data'
  end

let grow_meta a =
  if a.n >= Bigarray.Array1.dim a.offs then begin
    let cap = 2 * Bigarray.Array1.dim a.offs in
    let offs' = big_create cap in
    Bigarray.Array1.blit a.offs (Bigarray.Array1.sub offs' 0 a.n);
    a.offs <- offs'
  end;
  if a.n >= Array.length a.atoms then begin
    let atoms' = Array.make (2 * Array.length a.atoms) None in
    Array.blit a.atoms 0 atoms' 0 a.n;
    a.atoms <- atoms'
  end

let intern a (atom : Atom.t) =
  let sid = Symbol.id atom.Atom.rel in
  let args = atom.Atom.args in
  let h = span_hash sid args in
  Mutex.protect a.lock (fun () ->
      let candidates =
        match Hashtbl.find_opt a.index h with Some l -> l | None -> []
      in
      match List.find_opt (fun id -> span_is a id sid args) candidates with
      | Some id -> id
      | None ->
          let k = Array.length args in
          grow_data a (k + 2);
          grow_meta a;
          let id = a.n and b = a.used in
          let data = a.data in
          Bigarray.Array1.unsafe_set data b sid;
          Bigarray.Array1.unsafe_set data (b + 1) k;
          for pos = 0 to k - 1 do
            Bigarray.Array1.unsafe_set data (b + 2 + pos)
              args.(pos).Term.id
          done;
          Bigarray.Array1.unsafe_set a.offs id b;
          a.atoms.(id) <- Some atom;
          a.used <- b + k + 2;
          a.n <- id + 1;
          Hashtbl.replace a.index h (id :: candidates);
          id)
