type spec =
  | Obj of int
  | Op1 of spec
  | Op of spec * spec

type node = {
  id : int;
  parent : int option;
  children : int list;
  leaves : int list;
}

type t = { nodes : node array; n_object_types : int }

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
  (* Returns (children_ids, leaf_types) contribution of a child spec. *)
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
    acc :=
      {
        id;
        parent;
        children = List.rev !sub_children;
        leaves = List.rev !sub_leaves;
      }
      :: !acc;
    id
  in
  let root_id = build None spec in
  assert (root_id = 0);
  let nodes =
    match !acc with
    | [] -> assert false (* build always pushes at least the root *)
    | first :: _ -> Array.make !next first
  in
  List.iter (fun n -> nodes.(n.id) <- n) !acc;
  { nodes; n_object_types }

let n_operators t = Array.length t.nodes
let n_object_types t = t.n_object_types
let root _ = 0
let nodes t = t.nodes
let parent t i = t.nodes.(i).parent
let children t i = t.nodes.(i).children
let leaves t i = t.nodes.(i).leaves
let is_al_operator t i = t.nodes.(i).leaves <> []

let al_operators t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> if n.leaves <> [] then Some n.id else None)

(* The traversals are iterative with an explicit stack: the recursive
   versions cost O(n · height) in list appends and risk stack overflow
   on the 100k-operator scale instances. *)
let preorder_from t start =
  let acc = ref [] in
  let stack = ref [ start ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | i :: rest ->
      acc := i :: !acc;
      (* children in order on top: the leftmost is processed first *)
      stack := t.nodes.(i).children @ rest
  done;
  List.rev !acc

let preorder t = preorder_from t 0

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
      stack := List.rev_append t.nodes.(i).children rest
  done;
  !acc

let depth t i =
  let rec up acc = function
    | None -> acc
    | Some p -> up (acc + 1) (parent t p)
  in
  up 0 (parent t i)

let height t =
  Array.fold_left (fun acc n -> max acc (depth t n.id)) 0 t.nodes

let object_popularity t =
  let pop = Array.make t.n_object_types 0 in
  Array.iter
    (fun n ->
      List.sort_uniq compare n.leaves
      |> List.iter (fun k -> pop.(k) <- pop.(k) + 1))
    t.nodes;
  pop

let leaf_instances t =
  Array.to_list t.nodes
  |> List.concat_map (fun n -> List.map (fun k -> (n.id, k)) n.leaves)

let subtree t i = preorder_from t i

let to_spec t =
  let rec build i =
    let nd = t.nodes.(i) in
    let inputs =
      List.map (fun k -> Obj k) nd.leaves
      @ List.map build nd.children
    in
    match inputs with
    | [ a ] -> Op1 a
    | [ a; b ] -> Op (a, b)
    | _ -> assert false (* arity checked at construction *)
  in
  build 0

let validate t =
  let n = Array.length t.nodes in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check i =
    if i >= n then Ok ()
    else begin
      let nd = t.nodes.(i) in
      if nd.id <> i then fail "node %d stores id %d" i nd.id
      else if List.length nd.children + List.length nd.leaves > 2 then
        fail "node %d has arity > 2" i
      else if
        List.exists (fun k -> k < 0 || k >= t.n_object_types) nd.leaves
      then fail "node %d references an unknown object type" i
      else if
        List.exists
          (fun c -> c < 0 || c >= n || t.nodes.(c).parent <> Some i)
          nd.children
      then fail "node %d has asymmetric child links" i
      else check (i + 1)
    end
  in
  match check 0 with
  | Error _ as e -> e
  | Ok () ->
    if n = 0 then Error "empty tree"
    else if t.nodes.(0).parent <> None then Error "root has a parent"
    else begin
      let visited = List.sort_uniq compare (preorder t) in
      if List.length visited <> n then
        Error "tree is not fully reachable from the root"
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
  let nodes =
    Array.init n (fun id ->
        { id; parent = parent.(id); children = children.(id);
          leaves = leaves.(id) })
  in
  let t = { nodes; n_object_types } in
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
    let nd = t.nodes.(i) in
    Format.fprintf ppf "%sn%d" indent i;
    if nd.leaves <> [] then
      Format.fprintf ppf " [%s]"
        (String.concat ", "
           (List.map (fun k -> Printf.sprintf "o%d" k) nd.leaves));
    Format.fprintf ppf "@ ";
    List.iter (go (indent ^ "  ")) nd.children
  in
  Format.fprintf ppf "@[<v>";
  go "" 0;
  Format.fprintf ppf "@]"
