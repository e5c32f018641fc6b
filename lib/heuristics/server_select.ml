module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers
module Prng = Insp_util.Prng
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type plan = (int * int) list array

let tolerance = 1e-9

(* Mutable capacity state during selection. *)
type state = {
  rate : int -> float;
  servers : Servers.t;
  card_left : float array;  (* per server *)
  link_left : float array array;  (* server x group *)
  needs : (int * int) list;  (* (group, object), each once *)
  chosen : (int * int) list array;  (* result under construction *)
}

(* The downloads to source: one (group, object type) per distinct
   object type a group's operators read, groups in order. *)
let init g platform ~groups =
  let needs =
    Array.to_list
      (Array.mapi
         (fun u ops -> List.map (fun k -> (u, k)) (Graph.distinct_objects g ops))
         groups)
    |> List.concat
  in
  let servers = platform.Platform.servers in
  let n_servers = Servers.n_servers servers in
  {
    rate = Objects.rate g.Graph.objects;
    servers;
    card_left = Array.init n_servers (fun l -> Servers.card servers l);
    link_left =
      Array.init n_servers (fun _ ->
          Array.make (Array.length groups) platform.Platform.server_link);
    needs;
    chosen = Array.make (Array.length groups) [];
  }

let can_provide st l u k =
  let rate = st.rate k in
  Servers.holds st.servers l k
  && st.card_left.(l) +. tolerance >= rate
  && st.link_left.(l).(u) +. tolerance >= rate

let assign st u k l =
  let rate = st.rate k in
  st.card_left.(l) <- st.card_left.(l) -. rate;
  st.link_left.(l).(u) <- st.link_left.(l).(u) -. rate;
  st.chosen.(u) <- (k, l) :: st.chosen.(u)

let finish st = Array.map (List.sort compare) st.chosen

(* One Download event per committed (group, object) pair, tagged with
   the rule that chose the server and the candidate set it chose from;
   one Download_failed when a rule proves the need unservable.  Guarded:
   with no journaling sink neither the event nor the candidate list is
   built. *)
let note_download u k l ~rule ~candidates =
  if Obs.journaling () then
    Obs.event
      (Journal.Download
         { group = u; object_type = k; server = l; rule;
           candidates = candidates () })

let note_failed u k reason =
  if Obs.journaling () then
    Obs.event
      (Journal.Download_failed { object_type = k; group = Some u; reason })

let random_graph rng g platform ~groups =
  let st = init g platform ~groups in
  (* Needs are served in list order, each once. *)
  let rec loop = function
    | [] -> Ok (finish st)
    | (u, k) :: pending -> (
      let capable =
        List.filter (fun l -> can_provide st l u k)
          (Servers.providers st.servers k)
      in
      match capable with
      | [] ->
        let msg =
          Printf.sprintf "no server can still provide o%d to processor %d" k u
        in
        note_failed u k msg;
        Error msg
      | _ ->
        let l = Prng.choose_list rng capable in
        note_download u k l ~rule:"random" ~candidates:(fun () -> capable);
        assign st u k l;
        loop pending)
  in
  loop st.needs

(* The three rules each visit "the groups still needing object k".  The
   legacy implementation rescanned (and on every assignment re-filtered)
   the whole needs list, turning selection into O(needs²); here the
   needs are bucketed per object once, assignment flips an
   assigned-flag, and a rule visit filters one bucket by the flags —
   every pending entry is touched O(1) times per rule.  Bucket order is
   the needs-list order restricted to the object, exactly what the
   legacy List.filter produced, so the visit order — and the journal —
   is unchanged. *)
let sophisticated_core st =
  let exception Failed of string in
  let all_needs = st.needs in
  let objects_in_needs = List.sort_uniq compare (List.map snd all_needs) in
  let bucket : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (u, k) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt bucket k) in
      Hashtbl.replace bucket k (u :: prev))
    all_needs;
  List.iter
    (fun k -> Hashtbl.replace bucket k (List.rev (Hashtbl.find bucket k)))
    objects_in_needs;
  let assigned : (int * int, unit) Hashtbl.t =
    Hashtbl.create (List.length all_needs)
  in
  let pending_count : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun k ->
      Hashtbl.replace pending_count k (List.length (Hashtbl.find bucket k)))
    objects_in_needs;
  let n_pending k = Option.value ~default:0 (Hashtbl.find_opt pending_count k) in
  let needing k =
    List.filter
      (fun u -> not (Hashtbl.mem assigned (u, k)))
      (Option.value ~default:[] (Hashtbl.find_opt bucket k))
  in
  let assign_need u k l =
    assign st u k l;
    Hashtbl.replace assigned (u, k) ();
    Hashtbl.replace pending_count k (n_pending k - 1)
  in
  try
    (* Loop 1: forced downloads of single-server objects. *)
    List.iter
      (fun (k, l) ->
        List.iter
          (fun u ->
            if can_provide st l u k then begin
              note_download u k l ~rule:"exclusive" ~candidates:(fun () -> [ l ]);
              assign_need u k l
            end
            else
              let msg =
                Printf.sprintf
                  "exclusive server S%d cannot sustain all downloads of o%d" l k
              in
              note_failed u k msg;
              raise (Failed msg))
          (needing k))
      (Servers.exclusive_objects st.servers);
    (* Loop 2: saturate single-object servers. *)
    List.iter
      (fun l ->
        match Servers.objects_on st.servers l with
        | [ k ] ->
          List.iter
            (fun u ->
              if can_provide st l u k then begin
                note_download u k l ~rule:"single_object"
                  ~candidates:(fun () -> [ l ]);
                assign_need u k l
              end)
            (needing k)
        | _ -> ())
      (Servers.single_object_servers st.servers);
    (* Loop 3: remaining needs, objects in decreasing nbP / nbS. *)
    let remaining_objects =
      List.filter (fun k -> n_pending k > 0) objects_in_needs
    in
    let ratio k =
      let nb_p = n_pending k in
      let nb_s =
        (* Links are per processor, so judge a server's ability by its
           remaining card capacity. *)
        List.length
          (List.filter
             (fun l -> st.card_left.(l) +. tolerance >= st.rate k)
             (Servers.providers st.servers k))
      in
      if nb_s = 0 then infinity else float_of_int nb_p /. float_of_int nb_s
    in
    let ordered =
      List.map (fun k -> (k, ratio k)) remaining_objects
      |> List.sort (fun (a, ra) (b, rb) ->
             let c = compare rb ra in
             if c <> 0 then c else compare a b)
      |> List.map fst
    in
    List.iter
      (fun k ->
        List.iter
          (fun u ->
            (* The provider with the most bandwidth left towards [u],
               ties to the lower id: one pass over the servers in id
               order.  The full ranking is built only for the journal. *)
            let best = ref (-1) and best_key = ref 0.0 in
            for l = 0 to Servers.n_servers st.servers - 1 do
              if can_provide st l u k then begin
                let kl = Float.min st.card_left.(l) st.link_left.(l).(u) in
                if !best < 0 || Float.compare kl !best_key > 0 then begin
                  best := l;
                  best_key := kl
                end
              end
            done;
            match !best with
            | -1 ->
              let msg =
                Printf.sprintf
                  "no server has bandwidth left to provide o%d to processor %d"
                  k u
              in
              note_failed u k msg;
              raise (Failed msg)
            | l ->
              note_download u k l ~rule:"ratio" ~candidates:(fun () ->
                  let key l =
                    Float.min st.card_left.(l) st.link_left.(l).(u)
                  in
                  Servers.providers st.servers k
                  |> List.filter (fun l -> can_provide st l u k)
                  |> List.sort (fun a b ->
                         let c = compare (key b) (key a) in
                         if c <> 0 then c else compare a b));
              assign_need u k l)
          (needing k))
      ordered;
    Ok (finish st)
  with Failed msg -> Error msg

let sophisticated_graph g platform ~groups =
  sophisticated_core (init g platform ~groups)

let random rng app platform ~groups =
  random_graph rng (Graph.of_app app) platform ~groups

let sophisticated app platform ~groups =
  sophisticated_graph (Graph.of_app app) platform ~groups
