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
  (* Ids are in preorder, so a descending sweep sizes the children
     before their parent. *)
  let { Optree.child_start; child; leaf_start; leaf; _ } = tree in
  for i = n - 1 downto 0 do
    let leaf_mass = ref 0.0 and child_mass = ref 0.0 in
    for x = leaf_start.(i) to leaf_start.(i + 1) - 1 do
      leaf_mass := !leaf_mass +. Objects.size objects leaf.(x)
    done;
    for x = child_start.(i) to child_start.(i + 1) - 1 do
      child_mass := !child_mass +. output.(child.(x))
    done;
    let input = !leaf_mass +. !child_mass in
    work.(i) <- base_work +. (work_factor *. (input ** alpha));
    output.(i) <- input
  done;
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
let download_rate t k = Objects.rate t.objects k

let total_work t = Array.fold_left ( +. ) 0.0 t.work

let heaviest_operator t =
  let best = ref 0 in
  Array.iteri (fun i w -> if w > t.work.(!best) then best := i) t.work;
  !best
