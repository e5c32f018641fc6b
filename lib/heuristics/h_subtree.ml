module Graph = Insp_tree.Graph
module Ledger = Insp_mapping.Ledger
module Catalog = Insp_platform.Catalog

type rules = Tree | Dag

(* Every node after its producers, each once: a depth-first postorder
   from the roots (in application order) over producers in slot order,
   the children-first postorder on a tree.  Iterative, so deep chains
   do not overflow the stack; a node is marked when pushed, which on an
   acyclic view is when it is first reached. *)
let postorder g =
  let seen = Array.make (Graph.n_nodes g) false in
  let out = ref [] in
  let rec walk = function
    | [] -> ()
    | (i, []) :: rest ->
      out := i :: !out;
      walk rest
    | (i, j :: js) :: rest ->
      if seen.(j) then walk ((i, js) :: rest)
      else begin
        seen.(j) <- true;
        walk ((j, Graph.producers g j) :: (i, js) :: rest)
      end
  in
  Array.iter
    (fun r ->
      if not seen.(r) then begin
        seen.(r) <- true;
        walk [ (r, Graph.producers g r) ]
      end)
    g.Graph.roots;
  List.rev !out

(* Depth of a node: the longest path to a sink (roots have depth 0), its
   distance from the root on a tree.  Consumers come first in the
   reversed postorder, so each node's depth is final before it is
   pushed to its producers. *)
let depths g order =
  let depth = Array.make (Graph.n_nodes g) 0 in
  List.iter
    (fun i ->
      List.iter
        (fun j -> depth.(j) <- max depth.(j) (depth.(i) + 1))
        (Graph.producers g i))
    (List.rev order);
  depth

(* Each sort key computed once per group, not per comparison; the
   stable sort keeps the order of the direct comparator. *)
let sort_by key cmp ids =
  List.map (fun g -> (key g, g)) ids
  |> List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb)
  |> List.map snd

(* One merge pass over a processor group, in the paper's spirit: "the
   heuristic first tries to allocate as many parent operators of the
   currently assigned operators to this processor".  An unassigned
   consumer is added directly; a consumer already sitting on another
   processor drags its whole processor in (returning it to the store on
   success).  Returns true when the group changed. *)
let absorb_consumers b gid =
  let g = Builder.graph b in
  let absorbs c =
    match Builder.assignment b c with
    | None -> Builder.try_add b gid c
    | Some other -> other <> gid && Builder.try_absorb b gid other
  in
  let rec consumers m k =
    k < Graph.n_consumers g m
    && (absorbs (Graph.consumer g m k) || consumers m (k + 1))
  in
  let rec pass progressed =
    if List.exists (fun m -> consumers m 0) (Builder.members b gid) then
      pass true
    else progressed
  in
  pass false

(* The groups of [op]'s producers, the hosts a leftover tries before
   buying.  Tree rules: heaviest edge first, a group hosting two
   producers listed once with the heavier edge.  DAG rules: in group-id
   order. *)
let producer_groups rules b op =
  let g = Builder.graph b in
  let hosts =
    List.filter_map
      (fun j ->
        Option.map
          (fun gid -> (gid, Graph.rate g op *. g.Graph.output.(j)))
          (Builder.assignment b j))
      (Graph.producers g op)
  in
  match rules with
  | Dag -> List.sort_uniq compare (List.map fst hosts)
  | Tree ->
    List.fold_left
      (fun acc (gid, w) ->
        (* the accumulator holds the O(degree) producer groups of one
           operator, not all live groups *)
        let prev =
          (try List.assoc gid acc with Not_found -> 0.0) [@lint.allow "p3"]
        in
        ((gid, Float.max w prev) :: List.remove_assoc gid acc
         [@lint.allow "p3"]))
      [] hosts
    |> List.sort (fun (_, wa) (_, wb) -> compare wb wa)
    |> List.map fst

(* Final consolidation ("possibly returning some processors"): fold
   small groups into others, smallest first.  Each loser tries the
   groups it exchanges a stream with before the rest, both in
   acquisition order, so communication stays internal; after each merge
   the sweep restarts.

   Per-group state lives in slot arrays built once, in acquisition
   order: id, member count, compute load and CPU speed.  A merge drops
   the loser's slot and re-reads the winner's count and load (no other
   group's load or speed changes); the count comes from the member
   list, which the ledger builds once per membership change and
   [Builder.finalize] shares.  Most candidate pairs overflow the
   winner's CPU, which is the first test [Builder.try_absorb] makes and
   rejects without mutating; testing it here first skips those pairs,
   and the adjacency of a pair is read only when it passes.  The pairs
   left are probed in the same order, so the first merge, and every
   placement, is the one the unfiltered sweep makes. *)
let consolidate b =
  let ledger = Builder.ledger b in
  let ids = Array.of_list (Builder.group_ids b) in
  let size = Array.map (fun gid -> List.length (Builder.members b gid)) ids in
  let load = Array.map (Ledger.compute_load ledger) ids in
  let speed =
    Array.map (fun gid -> (Builder.config b gid).Catalog.cpu.Catalog.speed) ids
  in
  let n = ref (Array.length ids) in
  let drop l =
    let close a = Array.blit a (l + 1) a l (!n - l - 1) in
    close ids;
    close size;
    close load;
    close speed;
    decr n
  in
  let absorb l w =
    Builder.try_absorb b ids.(w) ids.(l)
    && begin
         size.(w) <- List.length (Builder.members b ids.(w));
         load.(w) <- Ledger.compute_load ledger ids.(w);
         drop l;
         true
       end
  in
  (* Winners whose CPU can take [l]'s load: the adjacent ones are tried
     as the scan meets them, the others after it, in order. *)
  let merge l =
    let rec scan w rest =
      if w = !n then List.exists (absorb l) (List.rev rest)
      else if w = l || not (Builder.leq (load.(w) +. load.(l)) speed.(w)) then
        scan (w + 1) rest
      else if Ledger.pair_flow ledger ids.(l) ids.(w) > 0.0 then
        absorb l w || scan (w + 1) rest
      else scan (w + 1) (w :: rest)
    in
    scan 0 []
  in
  let rec pass () =
    let by_size =
      List.stable_sort
        (fun x y -> Int.compare size.(x) size.(y))
        (List.init !n Fun.id)
    in
    if List.exists merge by_size then pass ()
  in
  pass ()

let run rules _rng g platform =
  let b = Builder.create g platform in
  let order = postorder g in
  let depth = depths g order in
  (* Deepest al-operators first, so merging proceeds bottom-up. *)
  let al_ops =
    List.filter (fun i -> Graph.leaves g i <> []) (List.init (Graph.n_nodes g) Fun.id)
    |> List.sort (fun x y ->
           let c = compare depth.(y) depth.(x) in
           if c <> 0 then c else compare x y)
  in
  let rec seed = function
    | [] -> Ok ()
    | op :: rest when Builder.assignment b op <> None -> seed rest
    | op :: rest ->
      let acquired =
        match rules with
        | Tree -> Common.acquire_for b ~style:`Best [ op ]
        | Dag -> Common.acquire_with_grouping b ~style:`Best op
      in
      Result.bind acquired (fun _ -> seed rest)
  in
  match seed al_ops with
  | Error e -> Error e
  | Ok () ->
    (* Bottom-up merge rounds: visit processors deepest-member-first and
       let each absorb the consumers of its operators; repeat while any
       processor still grows (a merge can unlock further merges). *)
    let deepest_member gid =
      List.fold_left (fun acc m -> max acc depth.(m)) 0 (Builder.members b gid)
    in
    let rec merge_rounds () =
      let by_depth =
        sort_by deepest_member (fun da db -> compare db da) (Builder.group_ids b)
      in
      let changed =
        List.fold_left
          (fun acc gid ->
            (* A group can have been absorbed earlier in this round. *)
            if Ledger.mem_proc (Builder.ledger b) gid then
              absorb_consumers b gid || acc
            else acc)
          false by_depth
      in
      if changed then merge_rounds ()
    in
    merge_rounds ();
    (* Operators whose consumers could not be absorbed anywhere get
       fresh processors, producers first so each can join a producer's
       group; loop until the pool drains. *)
    (* [step] counts the rounds against the round budget, which grants
       those below [Common.round_limit b].  A step is a function of the
       builder's state alone, in which processor ids matter only by
       their order: the ledger (hosts, configs, loads, flows), the
       acquisition order (ascending ids) and the next id the arena
       hands out (above every live one).  So once the state at a step
       equals, up to renumbering ids by rank, the state at an earlier
       step, the loop repeats that stretch forever and could only end by
       spending its budget: it fails as the budget would, at once.
       Brent's cycle finding: [saved] is the state's key at the last
       power-of-two step, and every later step compares its key with
       it.  Saving starts at the first power of two from the node count
       on, so a loop that converges sooner (the loops seen need a few
       dozen steps at most) builds no keys. *)
    let rec place step saved =
      (* A grouping sell can release operators placed earlier in the
         order, so each step rescans it from the front. *)
      (* lint: allow p3 — one O(n) scan per step, within the budget *)
      match List.find_opt (fun i -> Builder.assignment b i = None) order with
      | None ->
        consolidate b;
        Ok b
      | Some op ->
        let checkpoint =
          step >= Graph.n_nodes g && step land (step - 1) = 0
        in
        let key =
          if checkpoint || Option.is_some saved then
            Some (Ledger.state_key (Builder.ledger b))
          else None
        in
        if step >= Common.round_limit b || (Option.is_some saved && key = saved)
        then Common.not_converged
        else
          let saved = if checkpoint then key else saved in
          if
            List.exists
              (fun gid -> Builder.try_add b gid op)
              (producer_groups rules b op)
          then begin
            (match (rules, Builder.assignment b op) with
            | Tree, Some gid -> ignore (absorb_consumers b gid)
            | Tree, None -> assert false (* try_add just placed op *)
            | Dag, _ -> ());
            place (step + 1) saved
          end
          else
            match Common.acquire_with_grouping b ~style:`Best op with
            | Ok gid ->
              ignore (absorb_consumers b gid);
              place (step + 1) saved
            | Error e -> Error e
    in
    place 1 None
