type spec =
  | Obj of int
  | Op1 of spec
  | Op of spec * spec

type t = {
  n_object_types : int;
  child_start : int array;
  child : int array;
  parent_start : int array;
  parent : int array;
  leaf_start : int array;
  leaf : int array;
}

(* Per-operator lists flattened into one row table: row [i] is
   [flat.(start.(i)) .. flat.(start.(i + 1) - 1)], in list order. *)
let csr lists =
  let n = Array.length lists in
  let start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    start.(i + 1) <- start.(i) + List.length lists.(i)
  done;
  let flat = Array.make start.(n) 0 in
  let rec fill x = function
    | [] -> ()
    | v :: rest ->
      flat.(x) <- v;
      fill (x + 1) rest
  in
  for i = 0 to n - 1 do
    fill start.(i) lists.(i)
  done;
  (start, flat)

let pack ~n_object_types ~parent ~children ~leaves =
  let child_start, child = csr children in
  let parent_start, parent =
    csr (Array.map (function Some p -> [ p ] | None -> []) parent)
  in
  let leaf_start, leaf = csr leaves in
  { n_object_types; child_start; child; parent_start; parent; leaf_start; leaf }

(* Ids are assigned in preorder: an operator gets the next free id, then
   its left subtree is numbered, then its right subtree. *)
let of_spec ~n_object_types spec =
  (match spec with
  | Obj _ -> invalid_arg "Optree.of_spec: root must be an operator"
  | Op1 _ | Op _ -> ());
  let acc = ref [] in
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let check_obj k =
    if k < 0 || k >= n_object_types then
      invalid_arg "Optree.of_spec: object type out of range";
    k
  in
  (* Pushes (id, parent, children, leaves) and returns the id. *)
  let rec build parent s =
    let id = fresh () in
    let sub_children = ref [] in
    let sub_leaves = ref [] in
    let handle_input input =
      match input with
      | Obj k -> sub_leaves := check_obj k :: !sub_leaves
      | Op1 _ | Op _ ->
        let child_id = build (Some id) input in
        sub_children := child_id :: !sub_children
    in
    (match s with
    | Obj _ -> assert false
    | Op1 a -> handle_input a
    | Op (a, b) ->
      handle_input a;
      handle_input b);
    acc := (id, parent, List.rev !sub_children, List.rev !sub_leaves) :: !acc;
    id
  in
  let root_id = build None spec in
  assert (root_id = 0);
  let n = !next in
  let parent = Array.make n None in
  let children = Array.make n [] and leaves = Array.make n [] in
  List.iter
    (fun (id, p, cs, ls) ->
      parent.(id) <- p;
      children.(id) <- cs;
      leaves.(id) <- ls)
    !acc;
  pack ~n_object_types ~parent ~children ~leaves

let n_operators t = Array.length t.child_start - 1
let n_object_types t = t.n_object_types
let root _ = 0

let slice start flat i =
  List.init (start.(i + 1) - start.(i)) (fun k -> flat.(start.(i) + k))

let parent t i =
  if t.parent_start.(i + 1) > t.parent_start.(i) then
    Some t.parent.(t.parent_start.(i))
  else None

let children t i = slice t.child_start t.child i
let leaves t i = slice t.leaf_start t.leaf i

let al_operators t =
  List.filter
    (fun i -> t.leaf_start.(i + 1) > t.leaf_start.(i))
    (List.init (n_operators t) Fun.id)

(* The traversals are iterative with an explicit stack: the recursive
   versions cost O(n · height) in list appends and risk stack overflow
   on the 100k-operator scale instances. *)
let preorder t =
  let acc = ref [] in
  let stack = ref [ 0 ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | i :: rest ->
      acc := i :: !acc;
      (* children in order on top: the leftmost is processed first *)
      stack := rest;
      for x = t.child_start.(i + 1) - 1 downto t.child_start.(i) do
        stack := t.child.(x) :: !stack
      done
  done;
  List.rev !acc

let postorder t =
  (* Reverse of a walk that emits each node before its children and
     visits the children right to left: pushing the children in order
     makes the rightmost pop first, and prepending to [acc] reverses the
     emission. *)
  let acc = ref [] in
  let stack = ref [ 0 ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | i :: rest ->
      acc := i :: !acc;
      stack := rest;
      for x = t.child_start.(i) to t.child_start.(i + 1) - 1 do
        stack := t.child.(x) :: !stack
      done
  done;
  !acc

(* A parent's id precedes its children's (preorder), so one ascending
   sweep settles every depth. *)
let height t =
  let n = n_operators t in
  let depth = Array.make n 0 and h = ref 0 in
  for i = 1 to n - 1 do
    depth.(i) <- depth.(t.parent.(t.parent_start.(i))) + 1;
    h := max !h depth.(i)
  done;
  !h

let object_popularity t =
  let pop = Array.make t.n_object_types 0 in
  let stamp = Array.make t.n_object_types (-1) in
  for i = 0 to n_operators t - 1 do
    for x = t.leaf_start.(i) to t.leaf_start.(i + 1) - 1 do
      let k = t.leaf.(x) in
      if stamp.(k) <> i then begin
        stamp.(k) <- i;
        pop.(k) <- pop.(k) + 1
      end
    done
  done;
  pop

let leaf_instances t =
  List.concat_map
    (fun i -> List.map (fun k -> (i, k)) (leaves t i))
    (List.init (n_operators t) Fun.id)

let to_spec t =
  let rec build i =
    let inputs =
      List.map (fun k -> Obj k) (leaves t i) @ List.map build (children t i)
    in
    match inputs with
    | [ a ] -> Op1 a
    | [ a; b ] -> Op (a, b)
    | _ -> assert false (* arity checked at construction *)
  in
  build 0

let rec any f x stop = x < stop && (f x || any f (x + 1) stop)

(* Structure, then one walk from the root over the child rows that must
   meet every id exactly once and in increasing order. *)
let validate t =
  let n = n_operators t in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check i =
    if i >= n then Ok ()
    else begin
      let c0 = t.child_start.(i) and c1 = t.child_start.(i + 1) in
      let l0 = t.leaf_start.(i) and l1 = t.leaf_start.(i + 1) in
      if c1 - c0 + (l1 - l0) > 2 then fail "node %d has arity > 2" i
      else if
        any (fun x -> t.leaf.(x) < 0 || t.leaf.(x) >= t.n_object_types) l0 l1
      then fail "node %d references an unknown object type" i
      else if
        any
          (fun x ->
            let c = t.child.(x) in
            c < 0 || c >= n
            || t.parent_start.(c + 1) = t.parent_start.(c)
            || t.parent.(t.parent_start.(c)) <> i)
          c0 c1
      then fail "node %d has asymmetric child links" i
      else check (i + 1)
    end
  in
  match check 0 with
  | Error _ as e -> e
  | Ok () ->
    if n = 0 then Error "empty tree"
    else if parent t 0 <> None then Error "root has a parent"
    else begin
      let seen = Array.make n false and count = ref 0 and ordered = ref true in
      let rec walk = function
        | [] -> ()
        | i :: rest when seen.(i) ->
          ordered := false;
          walk rest
        | i :: rest ->
          seen.(i) <- true;
          if i <> !count then ordered := false;
          incr count;
          let stack = ref rest in
          for x = t.child_start.(i + 1) - 1 downto t.child_start.(i) do
            stack := t.child.(x) :: !stack
          done;
          walk !stack
      in
      walk [ 0 ];
      if !count <> n then Error "tree is not fully reachable from the root"
      else if not !ordered then Error "ids are not in preorder"
      else Ok ()
    end

(* Direct array constructor for generators that build large trees
   without going through a recursive [spec] (DESIGN.md §16): [of_spec]
   recursion is bounded by the tree height, which a pathological shape
   can push to the operator count. *)
let of_arrays ~n_object_types ~parent ~children ~leaves =
  let n = Array.length parent in
  if n = 0 then invalid_arg "Optree.of_arrays: empty tree";
  if Array.length children <> n || Array.length leaves <> n then
    invalid_arg "Optree.of_arrays: array lengths disagree";
  let t = pack ~n_object_types ~parent ~children ~leaves in
  match validate t with
  | Ok () -> t
  | Error e -> invalid_arg ("Optree.of_arrays: " ^ e)

let left_deep ~n_operators ~objects =
  if n_operators < 1 then invalid_arg "Optree.left_deep: need >= 1 operator";
  if Array.length objects <> n_operators + 1 then
    invalid_arg "Optree.left_deep: need n_operators + 1 leaf objects";
  (* objects.(0) is the root's own leaf, objects.(n_operators) is the
     second leaf of the deepest operator. *)
  let rec build i =
    if i = n_operators - 1 then Op (Obj objects.(i), Obj objects.(i + 1))
    else Op (build (i + 1), Obj objects.(i))
  in
  let n_object_types =
    1 + Array.fold_left max 0 objects
  in
  of_spec ~n_object_types (build 0)

let pp ppf t =
  let rec go indent i =
    let ls = leaves t i in
    Format.fprintf ppf "%sn%d" indent i;
    if ls <> [] then
      Format.fprintf ppf " [%s]"
        (String.concat ", " (List.map (fun k -> Printf.sprintf "o%d" k) ls));
    Format.fprintf ppf "@ ";
    List.iter (go (indent ^ "  ")) (children t i)
  in
  Format.fprintf ppf "@[<v>";
  go "" 0;
  Format.fprintf ppf "@]"
