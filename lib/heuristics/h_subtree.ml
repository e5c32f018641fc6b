module App = Insp_tree.App
module Graph = Insp_tree.Graph
module Optree = Insp_tree.Optree

(* Children groups ordered by decreasing edge weight towards [op]; a
   group hosting both children is listed once with the heavier edge. *)
let child_groups b app op =
  let tree = App.tree app in
  let weighted =
    List.fold_left
      (fun acc c ->
        match Builder.assignment b c with
        | None -> acc
        | Some gid ->
          let w = App.rho app *. App.output_size app c in
          (* the accumulator holds the O(degree) child groups of one
             operator, not all live groups *)
          let prev =
            (try List.assoc gid acc with Not_found -> 0.0) [@lint.allow "p3"]
          in
          ((gid, Float.max w prev) :: List.remove_assoc gid acc
           [@lint.allow "p3"]))
      []
      (Optree.children tree op)
  in
  List.sort (fun (_, wa) (_, wb) -> compare wb wa) weighted |> List.map fst

(* One merge pass over a processor group, in the paper's spirit: "the
   heuristic first tries to allocate as many parent operators of the
   currently assigned operators to this processor".  An unassigned parent
   is added directly; a parent already sitting on another processor drags
   its whole processor in (returning it to the store on success).
   Returns true when the group changed. *)
let absorb_parents b app gid =
  let tree = App.tree app in
  let progressed = ref false in
  let rec pass () =
    let changed =
      List.exists
        (fun m ->
          match Optree.parent tree m with
          | None -> false
          | Some p -> (
            match Builder.assignment b p with
            | None -> Builder.try_add b gid p
            | Some other when other <> gid -> Builder.try_absorb b gid other
            | Some _ -> false))
        (Builder.members b gid)
    in
    if changed then begin
      progressed := true;
      pass ()
    end
  in
  pass ();
  !progressed

let run _rng app platform =
  let b = Builder.create (Graph.of_app app) platform in
  let tree = App.tree app in
  let rec assign_al = function
    | [] -> Ok ()
    | op :: rest -> (
      match Common.acquire_for b ~style:`Best [ op ] with
      | Ok _ -> assign_al rest
      | Error e -> Error e)
  in
  (* Deepest al-operators first, so merging proceeds bottom-up. *)
  let al_ops =
    Optree.al_operators tree
    |> List.sort (fun a b ->
           let c = compare (Optree.depth tree b) (Optree.depth tree a) in
           if c <> 0 then c else compare a b)
  in
  match assign_al al_ops with
  | Error e -> Error e
  | Ok () ->
    (* Bottom-up merge rounds: visit processors deepest-member-first and
       let each absorb the parents of its operators; repeat while any
       processor still grows (a merge can unlock further merges). *)
    let deepest_member gid =
      List.fold_left
        (fun acc m -> max acc (Optree.depth tree m))
        0 (Builder.members b gid)
    in
    (* Each sort key computed once per group, not per comparison; the
       stable sort keeps the order of the direct comparator. *)
    let sort_by key cmp ids =
      List.map (fun g -> (key g, g)) ids
      |> List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb)
      |> List.map snd
    in
    let rec merge_rounds () =
      let by_depth =
        sort_by deepest_member
          (fun da db -> compare db da)
          (Builder.group_ids b)
      in
      let changed =
        List.fold_left
          (fun acc gid ->
            (* A group can have been absorbed earlier in this round. *)
            if List.mem gid (Builder.group_ids b) then
              absorb_parents b app gid || acc
            else acc)
          false by_depth
      in
      if changed then merge_rounds ()
    in
    merge_rounds ();
    (* Operators whose parents could not be absorbed anywhere get fresh
       processors, children first so each can join a child's group.  The
       grouping fallback can sell a processor and release its operators,
       so loop until the pool drains (bounded to guarantee
       termination). *)
    let budget = ref ((App.n_operators app * App.n_operators app) + 16) in
    (* Final consolidation ("possibly returning some processors"): fold
       leftover small processors into any processor with spare capacity,
       smallest first, preferring tree-adjacent hosts so communication
       stays internal. *)
    let consolidate () =
      let adjacent ga gb =
        let members_a = Builder.members b ga in
        List.exists
          (fun m ->
            (match Optree.parent tree m with
            | Some p -> Builder.assignment b p = Some gb
            | None -> false)
            || List.exists
                 (fun c -> Builder.assignment b c = Some gb)
                 (Optree.children tree m))
          members_a
      in
      let rec pass () =
        let by_size =
          sort_by
            (fun g -> List.length (Builder.members b g))
            compare (Builder.group_ids b)
        in
        let merged =
          List.exists
            (fun loser ->
              List.mem loser (Builder.group_ids b)
              && (let hosts =
                    List.filter (fun g -> g <> loser) (Builder.group_ids b)
                  in
                  let adj, rest =
                    List.partition (fun g -> adjacent g loser) hosts
                  in
                  List.exists
                    (fun winner -> Builder.try_absorb b winner loser)
                    (adj @ rest)))
            by_size
        in
        if merged then pass ()
      in
      pass ()
    in
    let rec place () =
      match
        List.filter
          (fun i -> Builder.assignment b i = None)
          (Optree.postorder tree)
      with
      | [] ->
        consolidate ();
        Ok b
      | op :: _ ->
        decr budget;
        if !budget <= 0 then
          Error "placement did not converge (grouping fallback oscillates)"
        else begin
          let hosted =
            List.exists
              (fun gid -> Builder.try_add b gid op)
              (child_groups b app op)
          in
          if hosted then begin
            (match Builder.assignment b op with
            | Some gid -> ignore (absorb_parents b app gid)
            | None -> assert false (* hosted: try_add just placed op *));
            place ()
          end
          else
            match Common.acquire_with_grouping b ~style:`Best op with
            | Ok gid ->
              ignore (absorb_parents b app gid);
              place ()
            | Error e -> Error e
        end
    in
    place ()
