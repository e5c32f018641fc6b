type t = {
  mutable next : int;
  mutable live : bool array;  (* indexed by id, grown geometrically *)
  mutable gen : int array;  (* per-id generation stamp *)
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  { next = 0; live = Array.make capacity false; gen = Array.make capacity 0 }

let ensure t id =
  let cap = Array.length t.live in
  if id >= cap then begin
    let cap' = max (id + 1) (2 * cap) in
    let live = Array.make cap' false in
    Array.blit t.live 0 live 0 cap;
    t.live <- live;
    let gen = Array.make cap' 0 in
    Array.blit t.gen 0 gen 0 cap;
    t.gen <- gen
  end

let alloc t =
  let id = t.next in
  t.next <- id + 1;
  ensure t id;
  t.live.(id) <- true;
  id

let check t id =
  if id < 0 || id >= t.next || not t.live.(id) then
    invalid_arg "Arena: dead id"

let is_live t id = id >= 0 && id < t.next && t.live.(id)

let free t id =
  check t id;
  t.live.(id) <- false;
  t.gen.(id) <- t.gen.(id) + 1

let generation t id =
  check t id;
  t.gen.(id)

let touch t id =
  check t id;
  t.gen.(id) <- t.gen.(id) + 1

let live_ids t =
  let acc = ref [] in
  for id = t.next - 1 downto 0 do
    if t.live.(id) then acc := id :: !acc
  done;
  !acc
