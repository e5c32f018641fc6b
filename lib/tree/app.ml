type t = {
  tree : Optree.t;
  objects : Objects.t;
  alpha : float;
  rho : float;
  base_work : float;
  work_factor : float;
  work : float array;
  output : float array;
}

let make ?(rho = 1.0) ?(base_work = 0.0) ?(work_factor = 1.0) ~tree ~objects
    ~alpha () =
  if alpha <= 0.0 then invalid_arg "App.make: alpha must be positive";
  if rho <= 0.0 then invalid_arg "App.make: rho must be positive";
  if base_work < 0.0 then invalid_arg "App.make: base_work must be >= 0";
  if work_factor <= 0.0 then invalid_arg "App.make: work_factor must be positive";
  if Optree.n_object_types tree > Objects.count objects then
    invalid_arg "App.make: tree references more object types than catalog";
  let n = Optree.n_operators tree in
  let work = Array.make n 0.0 in
  let output = Array.make n 0.0 in
  (* Postorder guarantees children are sized before their parent. *)
  List.iter
    (fun i ->
      let leaf_mass =
        List.fold_left
          (fun acc k -> acc +. Objects.size objects k)
          0.0 (Optree.leaves tree i)
      in
      let child_mass =
        List.fold_left
          (fun acc c -> acc +. output.(c))
          0.0 (Optree.children tree i)
      in
      let input = leaf_mass +. child_mass in
      work.(i) <- base_work +. (work_factor *. (input ** alpha));
      output.(i) <- input)
    (Optree.postorder tree);
  { tree; objects; alpha; rho; base_work; work_factor; work; output }

let tree t = t.tree
let objects t = t.objects
let alpha t = t.alpha
let base_work t = t.base_work
let work_factor t = t.work_factor
let rho t = t.rho
let n_operators t = Optree.n_operators t.tree
let work t i = t.work.(i)
let output_size t i = t.output.(i)
let works t = t.work
let output_sizes t = t.output
let comm_volume t i = t.rho *. t.output.(i)
let download_rate t k = Objects.rate t.objects k

let edge_weight t i =
  match Optree.parent t.tree i with
  | None -> 0.0
  | Some _ -> t.rho *. t.output.(i)

let total_work t = Array.fold_left ( +. ) 0.0 t.work

let total_leaf_mass t =
  List.fold_left
    (fun acc (_, k) -> acc +. Objects.size t.objects k)
    0.0
    (Optree.leaf_instances t.tree)

let heaviest_operator t =
  let best = ref 0 in
  Array.iteri (fun i w -> if w > t.work.(!best) then best := i) t.work;
  !best
