module Graph = Insp_tree.Graph
module Platform = Insp_platform.Platform
module Catalog = Insp_platform.Catalog
module Alloc = Insp_mapping.Alloc
module Cost = Insp_mapping.Cost
module Builder = Insp_heuristics.Builder
module Solve = Insp_heuristics.Solve
module Prng = Insp_util.Prng
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type outcome = {
  alloc : Alloc.t;
  cost_before : float;
  cost_after : float;
  realloc_cost : float;
  migrations : int;
  rebuys : int;
  downgrades : int;
}

type action =
  | A_migrate of { op : int; from_proc : int; to_group : int }
  | A_rebuy of { group : int; config : Catalog.config; op : int }

(* Place one displaced operator: first into a surviving group as-is,
   then allowing a configuration upgrade, finally — when permitted — on
   a freshly bought replacement processor. *)
let place b ~allow_rebuy ~max_procs op =
  let gids = Builder.group_ids b in
  let rec first fits = function
    | [] -> None
    | gid :: rest -> if fits b gid op then Some (`Mig gid) else first fits rest
  in
  match first Builder.try_add gids with
  | Some _ as r -> r
  | None -> (
    match first Builder.try_add_upgrade gids with
    | Some _ as r -> r
    | None ->
      let under_budget =
        match max_procs with
        | Some m -> List.length gids < m
        | None -> true
      in
      if not (allow_rebuy && under_budget) then None
      else
        match Builder.acquire_cheapest b ~members:[ op ] with
        | Ok gid -> Some (`Buy (gid, Builder.config b gid))
        | Error _ -> None)

let validate_failed n_procs failed =
  let failed = List.sort_uniq compare failed in
  List.iter
    (fun u ->
      if u < 0 || u >= n_procs then
        invalid_arg "Repair.run: failed processor index out of range")
    failed;
  failed

let run ?max_procs ?(allow_rebuy = true) g platform alloc ~failed =
  let n_procs = Alloc.n_procs alloc in
  let failed = validate_failed n_procs failed in
  let is_failed u = List.mem u failed in
  let catalog = platform.Platform.catalog in
  let cost_before = Cost.of_alloc catalog alloc in
  let failed_cost =
    let per = Cost.per_proc catalog alloc in
    List.fold_left (fun s u -> s +. per.(u)) 0.0 failed
  in
  (* Rebuild the placement on the nominal platform: survivors keep
     their processors (re-acquired in index order, so group ids are
     deterministic), then each displaced operator is re-placed in
     ascending id order.  The builder's probe/ledger chatter runs
     quietly — only the Repair_* decisions below are journaled. *)
  let work () =
    let b = Builder.create g platform in
    let rec reacquire u =
      if u = n_procs then Ok ()
      else if is_failed u then reacquire (u + 1)
      else
        let p = Alloc.proc alloc u in
        match
          Builder.acquire b ~config:p.Alloc.config ~members:p.Alloc.operators
        with
        | Ok _ -> reacquire (u + 1)
        | Error _ ->
          Error
            (Printf.sprintf
               "survivor %d re-acquire: cannot host operators {%s} on the \
                requested processor"
               u
               (String.concat ", " (List.map string_of_int p.Alloc.operators)))
    in
    Result.bind (reacquire 0) @@ fun () ->
    let displaced =
      List.concat_map (fun u -> Alloc.operators_of alloc u) failed
      |> List.sort compare
    in
    let from_proc = Array.make (Graph.n_nodes g) (-1) in
    List.iter
      (fun u ->
        List.iter (fun op -> from_proc.(op) <- u) (Alloc.operators_of alloc u))
      failed;
    let rec place_all actions = function
      | [] -> Ok (List.rev actions)
      | op :: rest -> (
        match place b ~allow_rebuy ~max_procs op with
        | Some (`Mig gid) ->
          let a = A_migrate { op; from_proc = from_proc.(op); to_group = gid } in
          place_all (a :: actions) rest
        | Some (`Buy (gid, config)) ->
          place_all (A_rebuy { group = gid; config; op } :: actions) rest
        | None ->
          Error
            (Printf.sprintf "no residual capacity for operator %d (rebuy %s)" op
               (if allow_rebuy then "exhausted" else "disabled")))
    in
    Result.bind (place_all [] displaced) @@ fun actions ->
    (* Three-loop selection draws nothing from the PRNG. *)
    match
      Solve.finish ~key:"repair" Solve.Three_loop (Prng.create 0) g platform b
    with
    | Error (Solve.Placement msg) -> Error ("finalize: " ^ msg)
    | Error (Solve.Server_selection msg) -> Error ("server selection: " ^ msg)
    | Error (Solve.Validation msg) ->
      Error ("repaired mapping infeasible:\n" ^ msg)
    | Ok o ->
      (* Processor [u] came from the builder's [u]-th live group. *)
      let downgrades = ref 0 in
      List.iteri
        (fun u gid ->
          if
            Catalog.label (Builder.config b gid)
            <> Catalog.label (Alloc.proc o.Solve.alloc u).Alloc.config
          then incr downgrades)
        (Builder.group_ids b);
      Ok (o, actions, !downgrades)
  in
  match Obs.quietly work with
  | Error _ as e ->
    Obs.incr "faults.repair.infeasible";
    e
  | Ok (o, actions, downgrades) ->
    let migrations = ref 0 and rebuys = ref 0 in
    List.iter
      (function
        | A_migrate { op; from_proc; to_group } ->
          incr migrations;
          if Obs.journaling () then
            Obs.event (Journal.Repair_migrate { op; from_proc; to_group })
        | A_rebuy { group; config; op } ->
          incr rebuys;
          if Obs.journaling () then
            Obs.event
              (Journal.Repair_rebuy
                 { group; config = Catalog.label config; ops = [ op ] }))
      actions;
    Obs.incr "faults.repair.ok";
    Obs.incr ~by:!migrations "faults.repair.migrations";
    Obs.incr ~by:!rebuys "faults.repair.rebuys";
    Ok
      {
        alloc = o.Solve.alloc;
        cost_before;
        cost_after = o.Solve.cost;
        realloc_cost = o.Solve.cost -. (cost_before -. failed_cost);
        migrations = !migrations;
        rebuys = !rebuys;
        downgrades;
      }
