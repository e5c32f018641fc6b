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

(* One merge pass over a processor group, in the paper's spirit: "the
   heuristic first tries to allocate as many parent operators of the
   currently assigned operators to this processor".  An unassigned
   consumer is added directly; a consumer already sitting on another
   processor drags its whole processor in (returning it to the store on
   success).  Returns true when the group changed.  A group with a slot
   in [deep] (the merge rounds' key: its deepest member) has the slot
   raised to the depth of every node that joins. *)
let absorb_consumers b ~depth ~deep gid =
  let g = Builder.graph b in
  let raise_to d = if gid < Array.length deep && d > deep.(gid) then deep.(gid) <- d in
  let absorbs c =
    match Builder.assignment b c with
    | None -> Builder.try_add b gid c && (raise_to depth.(c); true)
    | Some other ->
      other <> gid && Builder.try_absorb b gid other
      && (if other < Array.length deep then raise_to deep.(other); true)
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
   order: id, member count, compute load and CPU speed.  A merge kills
   the loser's slot and re-reads the winner's count and load (no other
   group's load or speed changes); the count comes from the member
   list, which the ledger builds once per membership change and
   [Builder.finalize] shares.  Three structures, allocated once, keep a
   sweep from touching groups that cannot merge:
   - [order]: the live slots, fewest members first, ties in slot order
     (what a stable sort by size gives), sorted once; a merge deletes
     the loser and moves the winner right to its new rank;
   - the loser's adjacent winners come from its ledger flow row
     ([Ledger.neighbours], ascending ids, so slot order);
   - [slack]: a max segment tree over the slots of each group's spare
     CPU, which lists, in slot order, the winners that may take the
     loser's load.  The spare CPU is computed with twice the tolerance
     [Builder.leq] grants, a margin far above the subtraction's
     rounding, so it lists every winner [leq] accepts.
   Most candidate pairs overflow the winner's CPU, which is the first
   test [Builder.try_absorb] makes and rejects without mutating; each
   listed winner takes that test here, with [Builder.leq], and only the
   pairs it passes are probed.  A rejected probe mutates nothing, so
   trying the adjacent winners first and the others after probes the
   pairs in the order the full sweep does, and the first merge of every
   sweep, hence every placement, is the one the unfiltered sweep
   makes. *)
let consolidate b =
  let ledger = Builder.ledger b in
  let ids = Array.of_list (Builder.group_ids b) in
  let n = Array.length ids in
  let slot_of =
    Array.make (if n = 0 then 0 else ids.(n - 1) + 1) (-1)
  in
  Array.iteri (fun s gid -> slot_of.(gid) <- s) ids;
  let size = Array.map (fun gid -> List.length (Builder.members b gid)) ids in
  let load = Array.map (Ledger.compute_load ledger) ids in
  let speed =
    Array.map (fun gid -> (Builder.config b gid).Catalog.cpu.Catalog.speed) ids
  in
  let before x y = size.(x) < size.(y) || (size.(x) = size.(y) && x < y) in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun x y -> Int.compare size.(x) size.(y)) order;
  (* the live slots are [order.(!head)] to [order.(n - 1)] *)
  let head = ref 0 in
  let cap = ref 1 in
  while !cap < n do
    cap := 2 * !cap
  done;
  let cap = !cap in
  (* leaf [cap + s] holds slot [s]'s spare CPU, an inner node the
     largest below it; dead and unused slots hold [neg_infinity] *)
  let slack = Array.make (2 * cap) Float.neg_infinity in
  let set s x =
    let i = ref (cap + s) in
    slack.(!i) <- x;
    while !i > 1 do
      i := !i lsr 1;
      slack.(!i) <- Float.max slack.(2 * !i) slack.(2 * !i + 1)
    done
  in
  let spare s = (speed.(s) *. (1.0 +. 2e-9)) +. 2e-9 -. load.(s) in
  for s = 0 to n - 1 do
    set s (spare s)
  done;
  (* The first slot from [s] on whose spare CPU reaches [x], [n] when
     none: climb while the subtree is short of [x], moving to the next
     subtree on the right, then descend to its leftmost leaf that
     reaches it. *)
  let next_fit x s =
    if s >= n then n
    else begin
      let i = ref (cap + s) in
      while !i > 0 && slack.(!i) < x do
        while !i land 1 = 1 do
          i := !i lsr 1
        done;
        if !i > 0 then incr i
      done;
      if !i = 0 then n
      else begin
        while !i < cap do
          i := 2 * !i;
          if slack.(!i) < x then incr i
        done;
        !i - cap
      end
    end
  in
  (* [x]'s position in [order] *)
  let rank x =
    let lo = ref !head and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if before order.(mid) x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* Shifts are explicit stores, not [Array.blit]: a statically typed
     int store needs no write barrier.  A loser leaves by shifting the
     slots before it, which its sweep has just visited, over it. *)
  let remove x =
    for q = rank x downto !head + 1 do
      order.(q) <- order.(q - 1)
    done;
    incr head
  in
  (* [x]'s member count rose to [m]: it moves right, past the slots now
     ranked before it. *)
  let grow x m =
    let p = ref (rank x) in
    size.(x) <- m;
    while !p + 1 < n && before order.(!p + 1) x do
      order.(!p) <- order.(!p + 1);
      incr p
    done;
    order.(!p) <- x
  in
  let fits l w = Builder.leq (load.(w) +. load.(l)) speed.(w) in
  let adjacent l w = Ledger.pair_flow ledger ids.(l) ids.(w) > 0.0 in
  let absorb l w =
    Builder.try_absorb b ids.(w) ids.(l)
    && begin
         remove l;
         grow w (List.length (Builder.members b ids.(w)));
         load.(w) <- Ledger.compute_load ledger ids.(w);
         set l Float.neg_infinity;
         set w (spare w);
         true
       end
  in
  let rec adjacent_winners l = function
    | [] -> false
    | gid :: rest ->
      let w = slot_of.(gid) in
      (fits l w && adjacent l w && absorb l w) || adjacent_winners l rest
  in
  let rec other_winners l w =
    w < n
    && ((w <> l && fits l w && (not (adjacent l w)) && absorb l w)
       || other_winners l (next_fit load.(l) (w + 1)))
  in
  let merge l =
    adjacent_winners l (Ledger.neighbours ledger ids.(l))
    || other_winners l (next_fit load.(l) 0)
  in
  let rec sweep k = k < n && (merge order.(k) || sweep (k + 1)) in
  while sweep !head do
    ()
  done

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
        | Tree -> (
          match Common.acquire_for b ~style:`Best [ op ] with
          | Ok _ as bought -> bought
          | Error _ -> Common.no_host [ op ])
        | Dag -> Common.acquire_with_grouping b ~style:`Best op
      in
      Result.bind acquired (fun _ -> seed rest)
  in
  match seed al_ops with
  | Error e -> Error e
  | Ok () ->
    (* Bottom-up merge rounds: visit processors deepest-member-first and
       let each absorb the consumers of its operators; repeat while any
       processor still grows (a merge can unlock further merges).  Rounds
       acquire nothing and only add members, so each group's deepest
       member, read once into [deep] and raised as members join, stays
       exact. *)
    let ids = Builder.group_ids b in
    let deep = Array.make (1 + List.fold_left max (-1) ids) 0 in
    List.iter
      (fun gid -> List.iter (fun m -> deep.(gid) <- max deep.(gid) depth.(m)) (Builder.members b gid))
      ids;
    let rec merge_rounds () =
      let by_depth =
        List.stable_sort
          (fun a b -> Int.compare deep.(b) deep.(a))
          (Builder.group_ids b)
      in
      let changed =
        List.fold_left
          (fun acc gid ->
            (* A group can have been absorbed earlier in this round. *)
            if Ledger.mem_proc (Builder.ledger b) gid then
              absorb_consumers b ~depth ~deep gid || acc
            else acc)
          false by_depth
      in
      if changed then merge_rounds ()
    in
    merge_rounds ();
    (* Operators whose consumers could not be absorbed anywhere get
       fresh processors, producers first so each can join a producer's
       group; loop until the pool drains. *)
    (* Each step is a round of one {!Common.rounds}: the loop fails as
       its budget would once the builder's state repeats. *)
    let rounds = Common.rounds b in
    let rec place () =
      (* A grouping sell can release operators placed earlier in the
         order, so each step rescans it from the front. *)
      (* lint: allow p3 — one O(n) scan per step, within the budget *)
      match List.find_opt (fun i -> Builder.assignment b i = None) order with
      | None ->
        consolidate b;
        Ok b
      | Some op ->
        if not (Common.next_round rounds) then Common.not_converged
        else if
          List.exists
            (fun gid -> Builder.try_add b gid op)
            (producer_groups rules b op)
        then begin
          (match (rules, Builder.assignment b op) with
          | Tree, Some gid -> ignore (absorb_consumers b ~depth ~deep:[||] gid)
          | Tree, None -> assert false (* try_add just placed op *)
          | Dag, _ -> ());
          place ()
        end
        else
          match Common.acquire_with_grouping b ~style:`Best op with
          | Ok gid ->
            ignore (absorb_consumers b ~depth ~deep:[||] gid);
            place ()
          | Error e -> Error e
    in
    place ()
