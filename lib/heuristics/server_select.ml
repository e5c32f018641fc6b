module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers
module Prng = Insp_util.Prng
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type plan = (int * int) list array

let tolerance = 1e-9

(* Selection state, all flat.  Need [e] is object type [need_type.(e)]
   for group [need_group.(e)]: one per distinct type a group's nodes
   read, group by group, types ascending within a group (the rows of
   [Graph.object_rows]).  [server.(e)] is the server chosen for it;
   [link_left.(l * n_groups + u)] is what is left of the link from
   server [l] to group [u]. *)
type state = {
  servers : Servers.t;
  n_groups : int;
  rate : float array;  (* per object type *)
  need_group : int array;
  need_type : int array;
  server : int array;
  card_left : float array;
  link_left : float array;
}

let init g platform ~groups =
  let n_groups = Array.length groups in
  let hosts = Array.make (Graph.n_nodes g) (-1) in
  Array.iteri (fun u -> List.iter (fun i -> hosts.(i) <- u)) groups;
  let row, need_type = Graph.object_rows g hosts n_groups in
  let need_group = Array.make (Array.length need_type) 0 in
  for u = 0 to n_groups - 1 do
    Array.fill need_group row.(u) (row.(u + 1) - row.(u)) u
  done;
  let servers = platform.Platform.servers and objects = g.Graph.objects in
  let n_servers = Servers.n_servers servers in
  {
    servers;
    n_groups;
    rate = Array.init (Objects.count objects) (Objects.rate objects);
    need_group;
    need_type;
    server = Array.make (Array.length need_type) (-1);
    card_left = Array.init n_servers (Servers.card servers);
    link_left = Array.make (n_servers * n_groups) platform.Platform.server_link;
  }

let[@inline] link st l u = (l * st.n_groups) + u

let can_provide st l u k =
  Servers.holds st.servers l k
  && st.card_left.(l) +. tolerance >= st.rate.(k)
  && st.link_left.(link st l u) +. tolerance >= st.rate.(k)

(* Bandwidth left from server [l] towards group [u]. *)
let[@inline] headroom st u l = Float.min st.card_left.(l) st.link_left.(link st l u)

let assign st e u k l =
  st.card_left.(l) <- st.card_left.(l) -. st.rate.(k);
  st.link_left.(link st l u) <- st.link_left.(link st l u) -. st.rate.(k);
  st.server.(e) <- l

(* Each group's plan in ascending object order: consing the needs from
   the last leaves every group's list sorted. *)
let finish st =
  let plan = Array.make st.n_groups [] in
  for e = Array.length st.need_type - 1 downto 0 do
    let u = st.need_group.(e) in
    plan.(u) <- (st.need_type.(e), st.server.(e)) :: plan.(u)
  done;
  plan

(* The capable providers of [k] towards [u], in server order. *)
let capable st u k =
  let acc = ref [] in
  for l = Servers.n_servers st.servers - 1 downto 0 do
    if can_provide st l u k then acc := l :: !acc
  done;
  !acc

(* One Download event per committed need, tagged with the rule that
   chose the server and the candidate set it chose from; one
   Download_failed when a rule proves the need unservable.  Callers
   test [Obs.journaling ()] before building a candidate list. *)
let note_download u k l ~rule candidates =
  Obs.event
    (Journal.Download { group = u; object_type = k; server = l; rule; candidates })

let note_failed u k reason =
  if Obs.journaling () then
    Obs.event (Journal.Download_failed { object_type = k; group = Some u; reason })

(* Needs are served in order: group by group, objects ascending. *)
let random_graph rng g platform ~groups =
  let st = init g platform ~groups and jn = Obs.journaling () in
  let rec serve e =
    if e >= Array.length st.need_type then Ok (finish st)
    else
      let u = st.need_group.(e) and k = st.need_type.(e) in
      match capable st u k with
      | [] ->
        let msg = Printf.sprintf "no server can still provide o%d to processor %d" k u in
        note_failed u k msg;
        Error msg
      | providers ->
        let l = Prng.choose_list rng providers in
        if jn then note_download u k l ~rule:"random" providers;
        assign st e u k l;
        serve (e + 1)
  in
  serve 0

(* The three rules each visit "the needs of object k not yet served":
   one counting pass files the needs per object ([bucket.(start.(k)) ..
   bucket.(start.(k + 1) - 1)], in need order, so in group order), and a
   visit filters one bucket by the assigned flags.  An assignment inside
   a visit flags only the need being visited, so filtering as the visit
   goes equals filtering the bucket up front. *)
let sophisticated_graph g platform ~groups =
  let st = init g platform ~groups in
  let exception Failed of string in
  let jn = Obs.journaling () in
  let n_types = Array.length st.rate and n_needs = Array.length st.need_type in
  let start = Array.make (n_types + 1) 0 in
  Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) st.need_type;
  for k = 0 to n_types - 1 do
    start.(k + 1) <- start.(k + 1) + start.(k)
  done;
  let bucket = Array.make n_needs 0 and fill = Array.sub start 0 n_types in
  Array.iteri
    (fun e k ->
      bucket.(fill.(k)) <- e;
      fill.(k) <- fill.(k) + 1)
    st.need_type;
  let assigned = Array.make n_needs false in
  let pending = Array.init n_types (fun k -> start.(k + 1) - start.(k)) in
  let serve e u k l =
    assign st e u k l;
    assigned.(e) <- true;
    pending.(k) <- pending.(k) - 1
  in
  let visit k f =
    for x = start.(k) to start.(k + 1) - 1 do
      let e = bucket.(x) in
      if not assigned.(e) then f e st.need_group.(e)
    done
  in
  let fail u k msg =
    note_failed u k msg;
    raise (Failed msg)
  in
  (* Serve every pending need of [k] from [l] that it can take; with
     [strict], one it cannot take fails the selection. *)
  let from_server rule ~strict (k, l) =
    visit k (fun e u ->
        if can_provide st l u k then begin
          if jn then note_download u k l ~rule [ l ];
          serve e u k l
        end
        else if strict then
          fail u k
            (Printf.sprintf
               "exclusive server S%d cannot sustain all downloads of o%d" l k))
  in
  try
    (* Loop 1: forced downloads of single-server objects. *)
    List.iter (from_server "exclusive" ~strict:true) (Servers.exclusive_objects st.servers);
    (* Loop 2: saturate single-object servers. *)
    List.iter
      (fun l ->
        match Servers.objects_on st.servers l with
        | [ k ] -> from_server "single_object" ~strict:false (k, l)
        | _ -> ())
      (Servers.single_object_servers st.servers);
    (* Loop 3: remaining needs, objects in decreasing nbP / nbS, ties to
       the lower id, every ratio taken before any need is served.  Links
       are per processor, so nbS counts the providers by card alone. *)
    let ratio =
      Array.init n_types (fun k ->
          let nb_s = ref 0 in
          for l = 0 to Servers.n_servers st.servers - 1 do
            if Servers.holds st.servers l k && st.card_left.(l) +. tolerance >= st.rate.(k)
            then incr nb_s
          done;
          if !nb_s = 0 then infinity else float_of_int pending.(k) /. float_of_int !nb_s)
    in
    List.filter (fun k -> pending.(k) > 0) (List.init n_types Fun.id)
    |> List.sort (fun a b ->
           let c = Float.compare ratio.(b) ratio.(a) in
           if c <> 0 then c else Int.compare a b)
    |> List.iter (fun k ->
           visit k (fun e u ->
               (* The provider with the most bandwidth left towards [u],
                  ties to the lower id, by one pass over the servers;
                  the full ranking is built only for the journal. *)
               let best = ref (-1) in
               for l = 0 to Servers.n_servers st.servers - 1 do
                 if
                   can_provide st l u k
                   && (!best < 0
                      || Float.compare (headroom st u l) (headroom st u !best) > 0)
                 then best := l
               done;
               if !best < 0 then
                 fail u k
                   (Printf.sprintf
                      "no server has bandwidth left to provide o%d to processor %d" k u);
               if jn then
                 note_download u k !best ~rule:"ratio"
                   (List.sort
                      (fun a b ->
                        let c = Float.compare (headroom st u b) (headroom st u a) in
                        if c <> 0 then c else Int.compare a b)
                      (capable st u k));
               serve e u k !best));
    Ok (finish st)
  with Failed msg -> Error msg

let random rng app platform ~groups =
  random_graph rng (Graph.of_app app) platform ~groups

let sophisticated app platform ~groups =
  sophisticated_graph (Graph.of_app app) platform ~groups
