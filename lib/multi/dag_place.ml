module Platform = Insp_platform.Platform
module Alloc = Insp_mapping.Alloc
module Cost = Insp_mapping.Cost
module Ledger = Insp_mapping.Ledger
module Demand = Insp_mapping.Demand
module Builder = Insp_heuristics.Builder
module Common = Insp_heuristics.Common
module Server_select = Insp_heuristics.Server_select
module Downgrade = Insp_heuristics.Downgrade
module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects

type outcome = { alloc : Alloc.t; cost : float; n_procs : int }

type failure =
  | Placement of string
  | Server_selection of string
  | Validation of string

let failure_message = function
  | Placement m -> "placement failed: " ^ m
  | Server_selection m -> "server selection failed: " ^ m
  | Validation m -> "validation failed: " ^ m

(* ------------------------------------------------------------------ *)
(* SBU-style placement on the shared Builder                           *)

(* Depth of a node = longest path to any sink (roots have depth 0). *)
let depths dag =
  let n = Dag.n_nodes dag in
  let depth = Array.make n 0 in
  (* ids are topological: consumers have higher ids; walk down. *)
  for i = n - 1 downto 0 do
    List.iter
      (function
        | Dag.Node j -> depth.(j) <- max depth.(j) (depth.(i) + 1)
        | Dag.Object _ -> ())
      (Dag.inputs dag i)
  done;
  depth

(* [Builder.try_absorb], skipped when the merged compute load alone
   overflows the winner: the probe would reject the merge on the same
   sum, and most consolidation candidates fail there. *)
let absorb b winner loser =
  let ledger = Builder.ledger b in
  Demand.fits (Ledger.config ledger winner)
    {
      Demand.compute = Ledger.compute_load ledger winner +. Ledger.compute_load ledger loser;
      download = 0.0;
      comm_in = 0.0;
      comm_out = 0.0;
    }
  && Builder.try_absorb b winner loser

let absorb_consumers b dag gid =
  let progressed = ref false in
  let rec pass () =
    let changed =
      List.exists
        (fun m ->
          List.exists
            (fun c ->
              match Builder.assignment b c with
              | None -> Builder.try_add b gid c
              | Some other when other <> gid -> absorb b gid other
              | Some _ -> false)
            (Dag.consumers dag m))
        (Builder.members b gid)
    in
    if changed then begin
      progressed := true;
      pass ()
    end
  in
  pass ();
  !progressed

(* Fold small groups into others, smallest first.  Each loser tries the
   groups it exchanges a stream with before the rest, both in
   acquisition order. *)
let consolidate b =
  let ledger = Builder.ledger b in
  let rec pass () =
    let by_size =
      List.sort
        (fun x y ->
          compare (List.length (Builder.members b x)) (List.length (Builder.members b y)))
        (Builder.group_ids b)
    in
    let merged =
      List.exists
        (fun loser ->
          Ledger.mem_proc ledger loser
          &&
          let adj, rest =
            List.filter (fun g -> g <> loser) (Builder.group_ids b)
            |> List.partition (fun g -> Ledger.pair_flow ledger loser g > 0.0)
          in
          List.exists (fun winner -> absorb b winner loser) (adj @ rest))
        by_size
    in
    if merged then pass ()
  in
  pass ()

(* [Common]'s grouping fallback, which words its failure for operator
   trees: here the members are DAG nodes. *)
let acquire_with_grouping b node =
  Result.map_error
    (fun e ->
      match String.index_opt e '{' with
      | Some i -> "no processor can host nodes " ^ String.sub e i (String.length e - i)
      | None -> e)
    (Common.acquire_with_grouping b ~style:`Best node)

let place dag platform =
  let b = Builder.create (Dag.graph dag) platform in
  let depth = depths dag in
  let al_nodes =
    List.filter (Dag.is_al_node dag) (Dag.topological dag)
    |> List.sort (fun x y ->
           let c = compare depth.(y) depth.(x) in
           if c <> 0 then c else compare x y)
  in
  let rec seed = function
    | [] -> Ok ()
    | node :: rest ->
      if Builder.assignment b node <> None then seed rest
      else Result.bind (acquire_with_grouping b node) (fun _ -> seed rest)
  in
  match seed al_nodes with
  | Error e -> Error e
  | Ok () ->
    (* bottom-up merge rounds *)
    let deepest gid =
      List.fold_left (fun acc m -> max acc depth.(m)) 0 (Builder.members b gid)
    in
    let rec merge_rounds () =
      let by_depth =
        List.sort (fun x y -> compare (deepest y) (deepest x)) (Builder.group_ids b)
      in
      let changed =
        List.fold_left
          (fun acc gid ->
            if Ledger.mem_proc (Builder.ledger b) gid then
              absorb_consumers b dag gid || acc
            else acc)
          false by_depth
      in
      if changed then merge_rounds ()
    in
    merge_rounds ();
    (* leftovers, inputs before consumers, bounded against oscillation *)
    let budget = ref ((Dag.n_nodes dag * Dag.n_nodes dag) + 16) in
    let rec leftovers () =
      match Builder.unassigned b with
      | [] ->
        consolidate b;
        Builder.finalize b
      | node :: _ ->
        decr budget;
        if !budget <= 0 then Error "placement did not converge"
        else begin
          let input_groups =
            List.filter_map
              (function
                | Dag.Node j -> Builder.assignment b j
                | Dag.Object _ -> None)
              (Dag.inputs dag node)
            |> List.sort_uniq compare
          in
          if List.exists (fun gid -> Builder.try_add b gid node) input_groups then
            leftovers ()
          else
            match acquire_with_grouping b node with
            | Ok gid ->
              ignore (absorb_consumers b dag gid);
              leftovers ()
            | Error e -> Error e
        end
    in
    leftovers ()

(* ------------------------------------------------------------------ *)
(* Full pipeline                                                       *)

let run dag platform =
  match place dag platform with
  | Error e -> Error (Placement e)
  | Ok (groups, configs) -> (
    let graph = Dag.graph dag in
    let needs =
      Array.to_list
        (Array.mapi
           (fun u g -> List.map (fun k -> (u, k)) (Graph.distinct_objects graph g))
           groups)
      |> List.concat
    in
    match
      Server_select.sophisticated_generic ~n_groups:(Array.length groups)
        ~rate:(Objects.rate (Dag.objects dag))
        ~servers:platform.Platform.servers
        ~server_link:platform.Platform.server_link ~needs
    with
    | Error e -> Error (Server_selection e)
    | Ok downloads -> (
      let alloc = Alloc.of_groups ~configs ~groups ~downloads in
      let alloc = Downgrade.run_graph graph platform alloc in
      match Dag_check.check dag platform alloc with
      | [] ->
        Ok
          {
            alloc;
            cost = Cost.of_alloc platform.Platform.catalog alloc;
            n_procs = Alloc.n_procs alloc;
          }
      | violations ->
        Error (Validation (Insp_mapping.Check.explain violations))))
