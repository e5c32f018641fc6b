(* A silent 0.0 for the empty list (the old [mean] behaviour) turns a
   "no feasible seeds" bug into a plausible-looking number downstream. *)
let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | samples ->
    List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

let approx_eq a b =
  let d = Float.abs (a -. b) in
  d <= 1e-12 || d <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
