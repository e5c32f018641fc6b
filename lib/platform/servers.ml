module Prng = Insp_util.Prng

type t = { cards : float array; holds : bool array array }

let make ~cards ~holds =
  let n_servers = Array.length cards in
  if n_servers = 0 then invalid_arg "Servers.make: no servers";
  if Array.length holds <> n_servers then
    invalid_arg "Servers.make: holds row count mismatch";
  let n_objects = Array.length holds.(0) in
  if n_objects = 0 then invalid_arg "Servers.make: no object types";
  Array.iter
    (fun row ->
      if Array.length row <> n_objects then
        invalid_arg "Servers.make: ragged holds matrix")
    holds;
  Array.iter
    (fun c -> if c <= 0.0 then invalid_arg "Servers.make: non-positive card")
    cards;
  for k = 0 to n_objects - 1 do
    let held = Array.exists (fun row -> row.(k)) holds in
    if not held then
      invalid_arg
        (Printf.sprintf "Servers.make: object type %d is held by no server" k)
  done;
  { cards = Array.copy cards; holds = Array.map Array.copy holds }

let random_placement rng ~n_servers ~n_object_types ~card ?(min_copies = 1)
    ?max_copies () =
  let max_copies =
    match max_copies with Some m -> m | None -> min 2 n_servers
  in
  if n_servers < 1 then invalid_arg "Servers.random_placement: n_servers >= 1";
  if n_object_types < 1 then
    invalid_arg "Servers.random_placement: n_object_types >= 1";
  if min_copies < 1 || max_copies < min_copies || max_copies > n_servers then
    invalid_arg "Servers.random_placement: bad replication range";
  let holds = Array.make_matrix n_servers n_object_types false in
  for k = 0 to n_object_types - 1 do
    let copies = Prng.int_range rng min_copies max_copies in
    let chosen = Prng.sample_without_replacement rng copies n_servers in
    List.iter (fun l -> holds.(l).(k) <- true) chosen
  done;
  make ~cards:(Array.make n_servers card) ~holds

let n_servers t = Array.length t.cards
let n_object_types t = Array.length t.holds.(0)
let card t l = t.cards.(l)
let holds t l k = t.holds.(l).(k)

let providers t k =
  let acc = ref [] in
  for l = n_servers t - 1 downto 0 do
    if t.holds.(l).(k) then acc := l :: !acc
  done;
  !acc

let availability t k = List.length (providers t k)

let objects_on t l =
  let acc = ref [] in
  for k = n_object_types t - 1 downto 0 do
    if t.holds.(l).(k) then acc := k :: !acc
  done;
  !acc

let exclusive_objects t =
  let acc = ref [] in
  for k = n_object_types t - 1 downto 0 do
    match providers t k with
    | [ l ] -> acc := (k, l) :: !acc
    | _ -> ()
  done;
  !acc

let single_object_servers t =
  let acc = ref [] in
  for l = n_servers t - 1 downto 0 do
    if List.length (objects_on t l) = 1 then acc := l :: !acc
  done;
  !acc
