type links =
  | Tree of Optree.node array
  | Shared of {
      producers : int list array;
      consumers : int array array;
      leaves : int list array;
      unshared : bool;
    }

type t = {
  rates : float array;
  rate_stride : int;
  work : float array;
  output : float array;
  roots : int array;
  objects : Objects.t;
  links : links;
}

let of_app app =
  {
    rates = [| App.rho app |];
    rate_stride = 0;
    work = App.works app;
    output = App.output_sizes app;
    roots = [| Optree.root (App.tree app) |];
    objects = App.objects app;
    links = Tree (Optree.nodes (App.tree app));
  }

let make ~rates ~work ~output ~producers ~consumers ~leaves ~roots ~objects =
  {
    rates;
    rate_stride = 1;
    work;
    output;
    roots;
    objects;
    links =
      Shared
        {
          producers;
          consumers;
          leaves;
          unshared = Array.for_all (fun cs -> Array.length cs <= 1) consumers;
        };
  }

let scale_rates g factor =
  { g with rates = Array.map (fun r -> r *. factor) g.rates }

let n_nodes g = Array.length g.work

(* A tree's accessors read its node records directly: one call per
   access, not one per field. *)
let producers g i =
  match g.links with
  | Tree nodes -> nodes.(i).Optree.children
  | Shared s -> s.producers.(i)

let unshared g =
  match g.links with Tree _ -> true | Shared s -> s.unshared

let n_consumers g i =
  match g.links with
  | Tree nodes -> ( match nodes.(i).Optree.parent with Some _ -> 1 | None -> 0)
  | Shared s -> Array.length s.consumers.(i)

let consumer g i k =
  match g.links with
  | Tree nodes -> (
    match nodes.(i).Optree.parent with
    | Some p when k = 0 -> p
    | Some _ | None -> invalid_arg "Graph.consumer: no such consumer")
  | Shared s -> s.consumers.(i).(k)

let rate g i = g.rates.(i * g.rate_stride)

let rec read_before j ps k =
  k > 0 && match ps with p :: ps -> p = j || read_before j ps (k - 1) | [] -> false

let rec repeats ps k = function
  | [] -> false
  | j :: rest -> read_before j ps k || repeats ps (k + 1) rest

let distinct_producers g i =
  let ps = producers g i in
  if not (repeats ps 0 ps) then ps
  else List.rev (List.fold_left (fun acc j -> if List.mem j acc then acc else j :: acc) [] ps)

let fastest g j f =
  let best = ref (-1) in
  for k = 0 to n_consumers g j - 1 do
    let c = consumer g j k in
    if
      f c
      && (!best < 0
         || g.rates.(c * g.rate_stride) > g.rates.(!best * g.rate_stride))
    then best := c
  done;
  !best

let leaves g i =
  match g.links with
  | Tree nodes -> nodes.(i).Optree.leaves
  | Shared s -> s.leaves.(i)

let distinct_objects g nodes =
  List.concat_map (leaves g) nodes |> List.sort_uniq Int.compare

(* Two sweeps over the nodes in id order (the node arrays read
   sequentially) lay out every row's leaves; each row is then deduplicated
   by per-type stamps and insertion-sorted in place, compacting as it goes. *)
let object_rows g hosts n =
  let n_hosted = min (n_nodes g) (Array.length hosts) in
  let start = Array.make (n + 1) 0 in
  for i = 0 to n_hosted - 1 do
    let u = hosts.(i) in
    if u >= 0 then start.(u + 1) <- start.(u + 1) + List.length (leaves g i)
  done;
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u + 1) + start.(u)
  done;
  let types = Array.make start.(n) 0 and fill = Array.sub start 0 n in
  let rec put u = function
    | [] -> ()
    | k :: ks ->
      types.(fill.(u)) <- k;
      fill.(u) <- fill.(u) + 1;
      put u ks
  in
  for i = 0 to n_hosted - 1 do
    if hosts.(i) >= 0 then put hosts.(i) (leaves g i)
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
