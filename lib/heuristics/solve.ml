module App = Insp_tree.App
module Graph = Insp_tree.Graph
module Platform = Insp_platform.Platform
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Cost = Insp_mapping.Cost
module Prng = Insp_util.Prng
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type placer = Prng.t -> Graph.t -> Platform.t -> (Builder.t, string) result

type heuristic = {
  name : string;
  key : string;
  place : placer;
  run : Prng.t -> App.t -> Platform.t -> (Builder.t, string) result;
  randomized : bool;
}

let make ~name ~key ~randomized place =
  {
    name;
    key;
    place;
    run = (fun rng app platform -> place rng (Graph.of_app app) platform);
    randomized;
  }

let sbu =
  make ~name:"Subtree-bottom-up" ~key:"sbu" ~randomized:false
    (H_subtree.run H_subtree.Tree)

let all =
  [
    make ~name:"Random" ~key:"random" ~randomized:true H_random.run;
    make ~name:"Comp-Greedy" ~key:"comp" ~randomized:false H_comp_greedy.run;
    make ~name:"Comm-Greedy" ~key:"comm" ~randomized:false H_comm_greedy.run;
    sbu;
    make ~name:"Object-Grouping" ~key:"objgroup" ~randomized:false
      H_object_grouping.run;
    make ~name:"Object-Availability" ~key:"objavail" ~randomized:false
      H_object_availability.run;
  ]

let find ident =
  let ident = String.lowercase_ascii ident in
  (* lint: allow p3 — registry lookup over the paper's six heuristics *)
  List.find_opt
    (fun h -> h.key = ident || String.lowercase_ascii h.name = ident)
    all

type outcome = { alloc : Alloc.t; cost : float; n_procs : int }

type failure =
  | Placement of string
  | Server_selection of string
  | Validation of string

let failure_message = function
  | Placement m -> "placement failed: " ^ m
  | Server_selection m -> "server selection failed: " ^ m
  | Validation m -> "validation failed: " ^ m

type selection = Random_servers | Three_loop

(* Called with all its arguments: a closure built inside the solve span
   would count against its allocation. *)
let phase jn key stage =
  if jn then Obs.event (Journal.Phase { heuristic = key; stage })

(* One span per pipeline stage, each announced by a phase event.  The
   journal guard is read once: [phase] costs nothing when the installed
   sink is not journaling. *)
let finish ~key selection rng g platform builder =
  let jn = Obs.journaling () in
  match Builder.finalize builder with
  | Error msg -> Error (Placement msg)
  | Ok (groups, configs) -> (
    phase jn key "server_select";
    let selected =
      Obs.span "server_select" (fun () ->
          match selection with
          | Random_servers -> Server_select.random_graph rng g platform ~groups
          | Three_loop -> Server_select.sophisticated_graph g platform ~groups)
    in
    match selected with
    | Error msg -> Error (Server_selection msg)
    | Ok downloads -> (
      let alloc = Alloc.of_groups ~configs ~groups ~downloads in
      phase jn key "downgrade";
      (* Measured once: downgrade changes only configurations, which the
         measurement does not read.  The check's closure holds the pair,
         which keeps it as small as before the sharing. *)
      let ((_, alloc) as measured) =
        Obs.span "downgrade" (fun () ->
            let m = Check.measure g alloc in
            (m, Downgrade.run_measured m platform alloc))
      in
      phase jn key "check";
      match
        Obs.span "check" (fun () ->
            Check.check_measured (fst measured) g platform (snd measured))
      with
      | [] ->
        let cost = Cost.of_alloc platform.Platform.catalog alloc in
        Ok { alloc; cost; n_procs = Alloc.n_procs alloc }
      | violations -> Error (Validation (Check.explain violations))))

let failure_status = function
  | Placement _ -> "placement_failed"
  | Server_selection _ -> "server_select_failed"
  | Validation _ -> "infeasible"

let run_graph ?(seed = 0) heuristic g platform =
  (* The Solved/Solve_failed decision counts the overall outcome, so
     sweep-level failure rates show up in metric exports. *)
  let key = heuristic.key in
  Obs.span ("solve." ^ key) (fun () ->
      let rng = Prng.create seed in
      phase (Obs.journaling ()) key "placement";
      let result =
        match Obs.span "placement" (fun () -> heuristic.place rng g platform) with
        | Error msg -> Error (Placement msg)
        | Ok builder -> (
          let selection =
            if heuristic.randomized then Random_servers else Three_loop
          in
          match finish ~key selection rng g platform builder with
          | Error _ as failed -> failed
          | Ok o as solved ->
            if Obs.decide Journal.Solved then
              (* [finalize] lists groups in acquisition order, which is
                 the processor index order of [Alloc.of_groups] — so
                 processor [i] came from builder group [group_ids.(i)],
                 the link [explain] follows back into builder events. *)
              Obs.event
                (Journal.Outcome
                   { heuristic = key; status = "feasible"; cost = Some o.cost;
                     n_procs = Some o.n_procs;
                     procs =
                       List.mapi (fun i gid -> (i, gid))
                         (Builder.group_ids builder) });
            solved)
      in
      (match result with
      | Ok _ -> ()
      | Error f ->
        if Obs.decide Journal.Solve_failed then
          Obs.event
            (Journal.Outcome
               { heuristic = key; status = failure_status f; cost = None;
                 n_procs = None; procs = [] }));
      result)

let run ?seed heuristic app platform =
  run_graph ?seed heuristic (Graph.of_app app) platform

let run_all ?(seed = 0) app platform =
  List.map (fun h -> (h, run ~seed h app platform)) all
