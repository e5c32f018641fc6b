module Solve = Insp_heuristics.Solve
module H_subtree = Insp_heuristics.H_subtree

type outcome = Solve.outcome = {
  alloc : Insp_mapping.Alloc.t;
  cost : float;
  n_procs : int;
}

type failure = Solve.failure =
  | Placement of string
  | Server_selection of string
  | Validation of string

let failure_message = Solve.failure_message

let sbu =
  Solve.make ~name:"Subtree-bottom-up" ~key:"sbu" ~randomized:false
    (H_subtree.run H_subtree.Dag)

(* The placer words its failures for operator trees; here the members
   are DAG nodes. *)
let reword m =
  match String.index_opt m '{' with
  | Some i -> "no processor can host nodes " ^ String.sub m i (String.length m - i)
  | None when String.starts_with ~prefix:"placement did not converge" m ->
    "placement did not converge"
  | None -> m

let run dag platform =
  Result.map_error
    (function Placement m -> Placement (reword m) | f -> f)
    (Solve.run_graph sbu (Dag.graph dag) platform)
