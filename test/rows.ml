(* The facts [Fact_set.iter_join_candidates] yields for the
   [(position, term)] constraints in [bound], after the constraint filter
   its caller (the register machine) applies: the index-side candidate
   list the fact-set tests check. *)

open Logic

let candidates t rel ~bound =
  let nb = List.length bound in
  let bound_pos = Array.of_list (List.map fst bound) in
  let bound_ids = Array.of_list (List.map (fun (_, tm) -> Term.hash tm) bound) in
  let arity = Symbol.arity rel in
  let seen = ref [] in
  Fact_set.iter_join_candidates t rel ~bound_pos ~bound_ids ~nb
    (fun atoms ids row ->
      let ok = ref true in
      for i = 0 to nb - 1 do
        if ids.((row * arity) + bound_pos.(i)) <> bound_ids.(i) then
          ok := false
      done;
      if !ok then seen := atoms.(row) :: !seen);
  List.rev !seen

(* The same list read off [Fact_set.by_rel]: every fact of [rel] in
   index order, filtered by the constraints. *)
let reference t rel ~bound =
  List.filter
    (fun a ->
      List.for_all (fun (pos, tm) -> Term.equal (Atom.arg a pos) tm) bound)
    (Fact_set.by_rel t rel)
