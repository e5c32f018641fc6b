module App = Insp_tree.App
module Platform = Insp_platform.Platform
module Catalog = Insp_platform.Catalog
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Cost = Insp_mapping.Cost
module Builder = Insp_heuristics.Builder
module Server_select = Insp_heuristics.Server_select
module Downgrade = Insp_heuristics.Downgrade
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
  let rec try_plain = function
    | [] -> None
    | g :: rest -> if Builder.try_add b g op then Some (`Mig g) else try_plain rest
  in
  let rec try_upgrade = function
    | [] -> None
    | g :: rest ->
      if Builder.try_add_upgrade b g op then Some (`Mig g) else try_upgrade rest
  in
  match try_plain gids with
  | Some _ as r -> r
  | None -> (
    match try_upgrade gids with
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

let run ?max_procs ?(allow_rebuy = true) app platform alloc ~failed =
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
     ascending id order.  The builder's probe/ledger chatter runs under
     a journal-suppressed sink — only the Repair_* decisions below are
     journaled, mirroring the Serve solve_quietly pattern. *)
  let work () =
    let b = Builder.create (Insp_tree.Graph.of_app app) platform in
    let actions = ref [] in
    let survivors_ok = ref None in
    for u = 0 to n_procs - 1 do
      if !survivors_ok = None && not (is_failed u) then begin
        let p = Alloc.proc alloc u in
        match
          Builder.acquire b ~config:p.Alloc.config ~members:p.Alloc.operators
        with
        | Ok _ -> ()
        | Error _ ->
          survivors_ok :=
            Some
              (Printf.sprintf
                 "survivor %d re-acquire: cannot host operators {%s} on the \
                  requested processor"
                 u
                 (String.concat ", " (List.map string_of_int p.Alloc.operators)))
      end
    done;
    match !survivors_ok with
    | Some msg -> Error msg
    | None ->
      let displaced =
        List.concat_map (fun u -> Alloc.operators_of alloc u) failed
        |> List.sort compare
      in
      let from_proc =
        let tbl = Array.make (App.n_operators app) (-1) in
        List.iter
          (fun u -> List.iter (fun op -> tbl.(op) <- u) (Alloc.operators_of alloc u))
          failed;
        tbl
      in
      let rec place_all = function
        | [] -> Ok ()
        | op :: rest -> (
          match place b ~allow_rebuy ~max_procs op with
          | Some (`Mig g) ->
            actions :=
              A_migrate { op; from_proc = from_proc.(op); to_group = g }
              :: !actions;
            place_all rest
          | Some (`Buy (g, config)) ->
            actions := A_rebuy { group = g; config; op } :: !actions;
            place_all rest
          | None ->
            Error
              (Printf.sprintf
                 "no residual capacity for operator %d (rebuy %s)" op
                 (if allow_rebuy then "exhausted" else "disabled")))
      in
      match place_all displaced with
      | Error _ as e -> e
      | Ok () -> (
        match Builder.finalize b with
        | Error msg -> Error ("finalize: " ^ msg)
        | Ok (groups, configs) -> (
          match Server_select.sophisticated app platform ~groups with
          | Error msg -> Error ("server selection: " ^ msg)
          | Ok downloads ->
            let raw = Alloc.of_groups ~configs ~groups ~downloads in
            let final = Downgrade.run app platform raw in
            let downgrades = ref 0 in
            for u = 0 to Alloc.n_procs final - 1 do
              if
                Catalog.label (Alloc.proc raw u).Alloc.config
                <> Catalog.label (Alloc.proc final u).Alloc.config
              then incr downgrades
            done;
            (match Check.check app platform final with
            | [] -> Ok (final, List.rev !actions, !downgrades)
            | violations ->
              Error ("repaired mapping infeasible:\n" ^ Check.explain violations))))
  in
  let result, sink = Obs.with_sink ~journal:false work in
  Obs.absorb sink;
  match result with
  | Error _ as e ->
    Obs.incr "faults.repair.infeasible";
    e
  | Ok (final, actions, downgrades) ->
    let migrations = ref 0 and rebuys = ref 0 in
    List.iter
      (fun a ->
        match a with
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
    let cost_after = Cost.of_alloc catalog final in
    Ok
      {
        alloc = final;
        cost_before;
        cost_after;
        realloc_cost = cost_after -. (cost_before -. failed_cost);
        migrations = !migrations;
        rebuys = !rebuys;
        downgrades;
      }
