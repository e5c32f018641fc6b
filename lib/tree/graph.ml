type t = {
  rates : float array;
  rate_stride : int;
  work : float array;
  output : float array;
  roots : int array;
  objects : Objects.t;
  prod_start : int array;
  prod : int array;
  cons_start : int array;
  cons : int array;
  leaf_start : int array;
  leaf : int array;
  unshared : bool;
}

(* Shared by every tree's view, never written. *)
let tree_roots = [| 0 |]

let of_app app =
  let tree = App.tree app in
  {
    rates = [| App.rho app |];
    rate_stride = 0;
    work = App.works app;
    output = App.output_sizes app;
    roots = tree_roots;
    objects = App.objects app;
    prod_start = tree.Optree.child_start;
    prod = tree.Optree.child;
    cons_start = tree.Optree.parent_start;
    cons = tree.Optree.parent;
    leaf_start = tree.Optree.leaf_start;
    leaf = tree.Optree.leaf;
    unshared = true;
  }

let make ~rates ~work ~output ~prod_start ~prod ~cons_start ~cons ~leaf_start
    ~leaf ~roots ~objects =
  let unshared = ref true in
  for i = 0 to Array.length cons_start - 2 do
    if cons_start.(i + 1) - cons_start.(i) > 1 then unshared := false
  done;
  { rates; rate_stride = 1; work; output; roots; objects; prod_start; prod;
    cons_start; cons; leaf_start; leaf; unshared = !unshared }

let scale_rates g factor =
  { g with rates = Array.map (fun r -> r *. factor) g.rates }

let n_nodes g = Array.length g.work
let n_producers g i = g.prod_start.(i + 1) - g.prod_start.(i)
let producer g i k = g.prod.(g.prod_start.(i) + k)
let n_consumers g i = g.cons_start.(i + 1) - g.cons_start.(i)
let consumer g i k = g.cons.(g.cons_start.(i) + k)
let n_leaves g i = g.leaf_start.(i + 1) - g.leaf_start.(i)
let leaf g i k = g.leaf.(g.leaf_start.(i) + k)
let rate g i = g.rates.(i * g.rate_stride)

(* Whether [v] is among [a.(x) .. a.(stop - 1)]: a top-level loop, so
   a call allocates no closure. *)
let rec mem_in (a : int array) v x stop =
  x < stop && (a.(x) = v || mem_in a v (x + 1) stop)

let read_before g i j k =
  let s = g.prod_start.(i) in
  mem_in g.prod j s (s + k)

let object_before g i o k =
  let s = g.leaf_start.(i) in
  mem_in g.leaf o s (s + k)

let fastest g j f =
  let best = ref (-1) in
  for x = g.cons_start.(j) to g.cons_start.(j + 1) - 1 do
    let c = g.cons.(x) in
    if
      f c
      && (!best < 0
         || g.rates.(c * g.rate_stride) > g.rates.(!best * g.rate_stride))
    then best := c
  done;
  !best

let rec leaves_onto g acc = function
  | [] -> acc
  | i :: rest ->
    let acc = ref acc in
    for x = g.leaf_start.(i) to g.leaf_start.(i + 1) - 1 do
      acc := g.leaf.(x) :: !acc
    done;
    leaves_onto g !acc rest

let distinct_objects g nodes = List.sort_uniq Int.compare (leaves_onto g [] nodes)

(* [count.(u + 1)] holds row [u]'s leaf count (repeats included) on
   entry; one sweep over the nodes in id order (the leaf rows read
   sequentially) lays the leaves out, then each row is deduplicated by
   per-type stamps and insertion-sorted in place, compacting as it
   goes. *)
let object_rows_counted g hosts n start =
  let n_hosted = min (n_nodes g) (Array.length hosts) in
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u + 1) + start.(u)
  done;
  let types = Array.make start.(n) 0 and fill = Array.sub start 0 n in
  for i = 0 to n_hosted - 1 do
    let u = hosts.(i) in
    if u >= 0 then
      for x = g.leaf_start.(i) to g.leaf_start.(i + 1) - 1 do
        types.(fill.(u)) <- g.leaf.(x);
        fill.(u) <- fill.(u) + 1
      done
  done;
  let stamp = Array.make (Objects.count g.objects) (-1) and top = ref 0 in
  for u = 0 to n - 1 do
    let first = !top in
    for r = start.(u) to start.(u + 1) - 1 do
      let k = types.(r) and x = ref !top in
      if stamp.(k) <> u then begin
        stamp.(k) <- u;
        while !x > first && types.(!x - 1) > k do
          types.(!x) <- types.(!x - 1);
          decr x
        done;
        types.(!x) <- k;
        incr top
      end
    done;
    start.(u) <- first
  done;
  start.(n) <- !top;
  (start, Array.sub types 0 !top)

let object_rows g hosts n =
  let n_hosted = min (n_nodes g) (Array.length hosts) in
  let count = Array.make (n + 1) 0 in
  for i = 0 to n_hosted - 1 do
    let u = hosts.(i) in
    if u >= 0 then
      count.(u + 1) <- count.(u + 1) + (g.leaf_start.(i + 1) - g.leaf_start.(i))
  done;
  object_rows_counted g hosts n count
