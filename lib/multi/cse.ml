module App = Insp_tree.App
module Optree = Insp_tree.Optree
module Objects = Insp_tree.Objects

(* Hash-consing on input codes.  A computation's canonical form is an
   object type, or the multiset of its inputs' canonical forms
   (commutativity = order-insensitivity; the binary tree shape itself
   is preserved, so this is hash-consing of equal subtrees, not full
   associative reassociation — see Insp_rewrite for shape changes).
   Every distinct operator form is interned once, so its DAG id names
   it: an input's code is [-(k+1)] for object leaf [k] and the DAG id
   of an operator child, and an operator's key is the sorted list of
   its input codes.  Equal keys are exactly equal forms, and a key
   costs O(fan-in) to hash and compare, not O(subtree). *)
let share ~objects ~alpha ?(base_work = 0.0) ?(work_factor = 1.0) ~trees () =
  (match trees with
  | [] -> invalid_arg "Cse.share: no applications"
  | _ -> ());
  let n_object_types = Objects.count objects in
  let builder = Dag.create_builder ~n_object_types in
  let table : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let share_tree tree =
    (* Bottom-up: children interned before parents. *)
    let node_id = Array.make (Optree.n_operators tree) (-1) in
    List.iter
      (fun op ->
        let leaves = Optree.leaves tree op
        and children = Optree.children tree op in
        let key =
          List.map (fun k -> -(k + 1)) leaves
          @ List.map (fun c -> node_id.(c)) children
          |> List.sort Int.compare
        in
        node_id.(op) <-
          (match Hashtbl.find_opt table key with
          | Some id -> id
          | None ->
            let id =
              Dag.add_node builder
                ~inputs:
                  (List.map (fun k -> Dag.Object k) leaves
                  @ List.map (fun c -> Dag.Node node_id.(c)) children)
            in
            Hashtbl.replace table key id;
            id))
      (Optree.postorder tree);
    node_id.(Optree.root tree)
  in
  let roots =
    List.map (fun (tree, rho) -> (share_tree tree, rho)) trees
  in
  Dag.finish builder ~objects ~alpha ~base_work ~work_factor ~roots ()

let share_apps apps =
  match apps with
  | [] -> invalid_arg "Cse.share_apps: no applications"
  | first :: rest ->
    let same_setup a =
      App.alpha a = App.alpha first
      && App.base_work a = App.base_work first
      && App.work_factor a = App.work_factor first
    in
    if not (List.for_all same_setup rest) then
      invalid_arg "Cse.share_apps: applications disagree on work model";
    share
      ~objects:(App.objects first)
      ~alpha:(App.alpha first) ~base_work:(App.base_work first)
      ~work_factor:(App.work_factor first)
      ~trees:(List.map (fun a -> (App.tree a, App.rho a)) apps)
      ()

type savings = {
  unshared_nodes : int;
  shared_nodes : int;
  unshared_work : float;
  shared_work : float;
  unshared_downloads : float;
  shared_downloads : float;
}

let dag_work dag =
  List.fold_left
    (fun acc i ->
      let n = Dag.node dag i in
      acc +. (n.Dag.rate *. n.Dag.work))
    0.0 (Dag.topological dag)

let dag_downloads dag objects =
  (* One download per (node, distinct object input). *)
  List.fold_left
    (fun acc i ->
      Dag.inputs dag i
      |> List.filter_map (function Dag.Object k -> Some k | Dag.Node _ -> None)
      |> List.sort_uniq compare
      |> List.fold_left (fun acc k -> acc +. Objects.rate objects k) acc)
    0.0 (Dag.topological dag)

let savings apps =
  match apps with
  | [] -> invalid_arg "Cse.savings: no applications"
  | first :: _ ->
    let objects = App.objects first in
    let unshared = Dag.of_apps apps in
    let shared = share_apps apps in
    {
      unshared_nodes = Dag.n_nodes unshared;
      shared_nodes = Dag.n_nodes shared;
      unshared_work = dag_work unshared;
      shared_work = dag_work shared;
      unshared_downloads = dag_downloads unshared objects;
      shared_downloads = dag_downloads shared objects;
    }

let pp_savings ppf s =
  let pct a b = if a > 0.0 then 100.0 *. (a -. b) /. a else 0.0 in
  Format.fprintf ppf
    "@[<v>nodes: %d -> %d (-%.0f%%)@ compute: %.0f -> %.0f Mops/s \
     (-%.1f%%)@ downloads: %.1f -> %.1f MB/s (-%.1f%%)@]"
    s.unshared_nodes s.shared_nodes
    (pct (float_of_int s.unshared_nodes) (float_of_int s.shared_nodes))
    s.unshared_work s.shared_work
    (pct s.unshared_work s.shared_work)
    s.unshared_downloads s.shared_downloads
    (pct s.unshared_downloads s.shared_downloads)
