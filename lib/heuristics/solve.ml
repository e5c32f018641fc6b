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

let all =
  [
    make ~name:"Random" ~key:"random" ~randomized:true H_random.run;
    make ~name:"Comp-Greedy" ~key:"comp" ~randomized:false H_comp_greedy.run;
    make ~name:"Comm-Greedy" ~key:"comm" ~randomized:false H_comm_greedy.run;
    make ~name:"Subtree-bottom-up" ~key:"sbu" ~randomized:false
      (H_subtree.run H_subtree.Tree);
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

let run_graph ?(seed = 0) heuristic g platform =
  (* One span per pipeline stage; the Solved/Solve_failed decision
     counts the overall outcome so sweep-level failure rates show up in
     metric exports.  Journal guard computed once: [phase] costs nothing
     when the installed sink is not journaling. *)
  let jn = Obs.journaling () in
  let phase stage =
    if jn then Obs.event (Journal.Phase { heuristic = heuristic.key; stage })
  in
  let failed status failure =
    if Obs.decide Journal.Solve_failed then
      Obs.event
        (Journal.Outcome
           {
             heuristic = heuristic.key;
             status;
             cost = None;
             n_procs = None;
             procs = [];
           });
    Error failure
  in
  Obs.span ("solve." ^ heuristic.key) (fun () ->
      let rng = Prng.create seed in
      phase "placement";
      match Obs.span "placement" (fun () -> heuristic.place rng g platform) with
      | Error msg -> failed "placement_failed" (Placement msg)
      | Ok builder -> (
        match Builder.finalize builder with
        | Error msg -> failed "placement_failed" (Placement msg)
        | Ok (groups, configs) -> (
          phase "server_select";
          let selection =
            Obs.span "server_select" (fun () ->
                if heuristic.randomized then
                  Server_select.random_graph rng g platform ~groups
                else Server_select.sophisticated_graph g platform ~groups)
          in
          match selection with
          | Error msg -> failed "server_select_failed" (Server_selection msg)
          | Ok downloads -> (
            let alloc = Alloc.of_groups ~configs ~groups ~downloads in
            phase "downgrade";
            let alloc =
              Obs.span "downgrade" (fun () -> Downgrade.run_graph g platform alloc)
            in
            phase "check";
            match Obs.span "check" (fun () -> Check.check_graph g platform alloc) with
            | [] ->
              let cost = Cost.of_alloc platform.Platform.catalog alloc in
              let n_procs = Alloc.n_procs alloc in
              if Obs.decide Journal.Solved then
                (* [finalize] lists groups in acquisition order, which is
                   the processor index order of [Alloc.of_groups] — so
                   processor [i] came from builder group [group_ids.(i)],
                   the link [explain] follows back into builder events. *)
                Obs.event
                  (Journal.Outcome
                     {
                       heuristic = heuristic.key;
                       status = "feasible";
                       cost = Some cost;
                       n_procs = Some n_procs;
                       procs =
                         List.mapi
                           (fun i gid -> (i, gid))
                           (Builder.group_ids builder);
                     });
              Ok { alloc; cost; n_procs }
            | violations ->
              failed "infeasible" (Validation (Check.explain violations))))))

let run ?seed heuristic app platform =
  run_graph ?seed heuristic (Graph.of_app app) platform

let run_all ?(seed = 0) app platform =
  List.map (fun h -> (h, run ~seed h app platform)) all
