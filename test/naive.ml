(* The naive homomorphism matcher: the reference the differential tests
   check the engines against. Plain backtracking over atom lists with a
   [Term.Map] assignment — no [Fact_set] index, no [Homomorphism], no
   [Containment]. Flexible terms bind to target terms atomically (a
   Skolem term is one element); every other pattern term must match
   literally. Each step extends the pattern atom with the most terms
   already fixed, so the containment checks between rewriting disjuncts
   of a dozen atoms and more stay a chain of lookups rather than a cross
   product. *)

open Logic

(* Extend [m] so that pattern atom [a] maps onto [fact], if possible. *)
let extend ~flexible m (a : Atom.t) (fact : Atom.t) =
  if not (Symbol.equal (Atom.rel a) (Atom.rel fact)) then None
  else
    List.fold_left2
      (fun acc t u ->
        match acc with
        | None -> None
        | Some m ->
            if not (Term.Set.mem t flexible) then
              if Term.equal t u then acc else None
            else (
              match Term.Map.find_opt t m with
              | Some u' -> if Term.equal u u' then acc else None
              | None -> Some (Term.Map.add t u m)))
      (Some m) (Atom.args a) (Atom.args fact)

(* Every homomorphism of [pattern] into [facts] that extends [init]. The
   [domain_vars] range over every term occurring in [facts]. *)
let iter ?(init = Term.Map.empty) ?(domain_vars = []) ~flexible pattern facts
    f =
  let domain =
    List.sort_uniq Term.compare (List.concat_map Atom.args facts)
  in
  let rec bind_domain m = function
    | [] -> f m
    | v :: rest -> (
        match Term.Map.find_opt v m with
        | Some u -> if List.exists (Term.equal u) domain then bind_domain m rest
        | None ->
            List.iter (fun u -> bind_domain (Term.Map.add v u m) rest) domain)
  in
  let fixed m a =
    List.length
      (List.filter
         (fun t -> (not (Term.Set.mem t flexible)) || Term.Map.mem t m)
         (Atom.args a))
  in
  let rec go m = function
    | [] -> bind_domain m domain_vars
    | a0 :: _ as pattern ->
        let a =
          List.fold_left
            (fun best a -> if fixed m a > fixed m best then a else best)
            a0 pattern
        in
        let rest = List.filter (fun b -> b != a) pattern in
        List.iter
          (fun fact ->
            match extend ~flexible m a fact with
            | Some m' -> go m' rest
            | None -> ())
          facts
  in
  go init pattern

(* The distinct homomorphisms, sorted. *)
let all ?init ?domain_vars ~flexible pattern facts =
  let acc = ref [] in
  iter ?init ?domain_vars ~flexible pattern facts (fun m -> acc := m :: !acc);
  List.sort_uniq (Term.Map.compare Term.compare) !acc

let exists ?init ~flexible pattern facts =
  let exception Found in
  match iter ?init ~flexible pattern facts (fun _ -> raise Found) with
  | () -> false
  | exception Found -> true

(* Chandra–Merlin: [implies q1 q2] (answers of [q1] are answers of [q2]
   on every structure) iff [q2]'s body maps into [q1]'s, answer
   variables positionally, [q1]'s variables frozen as target terms. *)
let implies q1 q2 =
  List.length (Cq.free q1) = List.length (Cq.free q2)
  &&
  let init =
    List.fold_left2
      (fun m v w -> Term.Map.add v w m)
      Term.Map.empty (Cq.free q2) (Cq.free q1)
  in
  exists ~init ~flexible:(Cq.var_set q2) (Cq.atoms q2) (Cq.atoms q1)

(* The minimal-UCQ insertion on a newest-first disjunct list: [None]
   when a kept disjunct covers [q], otherwise [q] in front of the
   disjuncts it does not cover. *)
let add_minimal kept q =
  if List.exists (fun d -> implies q d) kept then None
  else Some (q :: List.filter (fun d -> not (implies d q)) kept)

(* Isomorphism: a homomorphism [q1 -> q2] (answer variables positionally)
   that is a bijection of variables; with equally many variables and
   atoms it maps the body onto [q2]'s. *)
let isomorphic q1 q2 =
  List.length (Cq.free q1) = List.length (Cq.free q2)
  && Cq.size q1 = Cq.size q2
  && List.length (Cq.vars q1) = List.length (Cq.vars q2)
  &&
  let init =
    List.fold_left2
      (fun m v w -> Term.Map.add v w m)
      Term.Map.empty (Cq.free q1) (Cq.free q2)
  in
  let exception Found in
  let bijective m =
    let images = List.map snd (Term.Map.bindings m) in
    List.for_all Term.is_var images
    && List.length (List.sort_uniq Term.compare images) = List.length images
  in
  match
    iter ~init ~flexible:(Cq.var_set q1) (Cq.atoms q1) (Cq.atoms q2) (fun m ->
        if bijective m then raise Found)
  with
  | () -> false
  | exception Found -> true

(* A core of [q]: drop body atoms while the rest is still a retract
   (the query maps into it fixing its answer variables). *)
let core q =
  let free = Cq.free q in
  let init =
    List.fold_left (fun m v -> Term.Map.add v v m) Term.Map.empty free
  in
  let flexible = Cq.var_set q in
  let rec shrink atoms =
    let without a = List.filter (fun b -> not (Atom.equal a b)) atoms in
    match
      List.find_opt
        (fun a ->
          let rest = without a in
          rest <> [] && exists ~init ~flexible atoms rest)
        atoms
    with
    | Some a -> shrink (without a)
    | None -> atoms
  in
  Cq.make ~free (shrink (Cq.atoms q))
