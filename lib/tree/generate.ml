module Prng = Insp_util.Prng

(* Two worklist passes replace the old spec-recursive construction in
   O(n) heap with no call stack proportional to the tree height, while
   reproducing its trees byte-for-byte on every seed.  That demands two
   *different* orders: the recursive original evaluated
   [Op (build left, build right)] under OCaml's right-to-left argument
   order, so every right subtree consumed PRNG draws before its left
   sibling (split first, then the whole right subtree, then the left) —
   but [of_spec] then numbered operators in left-first preorder over the
   finished spec.  The draw pass below walks right-subtree-first
   allocating temporary ids; the numbering pass re-walks left-first
   preorder to produce the final ids.  A node input is encoded as a
   temporary id (>= 0) or an object leaf ([-1 - k]).  The split point is
   uniform, which yields a healthy mix of skewed and balanced shapes. *)
let random_shape rng ~n_operators ~n_object_types =
  if n_operators < 1 then invalid_arg "Generate.random_shape: n_operators >= 1";
  if n_object_types < 1 then
    invalid_arg "Generate.random_shape: n_object_types >= 1";
  (* Draw pass: task = (budget, parent temp id, is left input).  n = 0
     is a bare object leaf.  Right task pushed on top so it pops (and
     draws) first, like the recursive original. *)
  let left_in = Array.make n_operators 0 in
  let right_in = Array.make n_operators 0 in
  let set_input t ~is_left v =
    if is_left then left_in.(t) <- v else right_in.(t) <- v
  in
  let next = ref 0 in
  let stack = ref [ (n_operators, -1, false) ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | (n, par, is_left) :: rest ->
      stack := rest;
      if n = 0 then begin
        let k = Prng.int rng n_object_types in
        (* par >= 0: the root task has n >= 1 *)
        set_input par ~is_left (-1 - k)
      end
      else begin
        let id = !next in
        incr next;
        if par >= 0 then set_input par ~is_left id;
        let left_ops = Prng.int rng n in
        let right_ops = n - 1 - left_ops in
        stack := (right_ops, id, false) :: (left_ops, id, true) :: !stack
      end
  done;
  (* Numbering pass: left-first preorder over the temp nodes (temp id 0
     is the root).  Left child pushed on top so it pops first; children
     and leaves therefore accumulate in left-right order once
     reversed. *)
  let parent = Array.make n_operators None in
  let children = Array.make n_operators [] in
  let leaves = Array.make n_operators [] in
  let fresh = ref 0 in
  let stack = ref [ (0, -1) ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | (t, par) :: rest ->
      stack := rest;
      let id = !fresh in
      incr fresh;
      if par >= 0 then parent.(id) <- Some par;
      let handle v =
        if v < 0 then leaves.(id) <- (-1 - v) :: leaves.(id)
        else children.(id) <- v :: children.(id)
      in
      handle left_in.(t);
      handle right_in.(t);
      (* children currently holds temp ids in right-left order; pushing
         in that order puts the left child on top of the stack. *)
      List.iter (fun c -> stack := (c, id) :: !stack) children.(id);
      children.(id) <- []
  done;
  (* Rebuild the children lists in final-id space: every non-root node
     pops after its parent, so parents are final by then, and the
     left-first preorder means a parent's children pop in left-right
     order with ascending final ids. *)
  for id = n_operators - 1 downto 1 do
    match parent.(id) with
    | Some p -> children.(p) <- id :: children.(p)
    | None -> assert false
  done;
  for i = 0 to n_operators - 1 do
    leaves.(i) <- List.rev leaves.(i)
  done;
  Optree.of_arrays ~n_object_types ~parent ~children ~leaves

let random_sizes rng ~n_object_types ~lo ~hi =
  if lo <= 0.0 || hi < lo then invalid_arg "Generate.random_sizes: bad range";
  Array.init n_object_types (fun _ -> Prng.float_range rng lo hi)
