module App = Insp_tree.App
module Ledger = Insp_mapping.Ledger
module Catalog = Insp_platform.Catalog

(* Ablation knob: fall back to the legacy scan-everything loop (resort
   the unassigned pool every round, probe every candidate during fill).
   The queue path commits the exact same placement sequence; only the
   probe/journal noise of certainly-infeasible candidates differs.  Not
   thread-safe. *)
let candidate_queue_enabled = ref true

let with_candidate_queue enabled f =
  let saved = !candidate_queue_enabled in
  candidate_queue_enabled := enabled;
  Fun.protect ~finally:(fun () -> candidate_queue_enabled := saved) f

let run_scan _rng app platform =
  let b = Builder.create app platform in
  (* The grouping fallback can sell a processor and release its
     operators, so bound the number of rounds to guarantee
     termination. *)
  let budget = ref ((App.n_operators app * App.n_operators app) + 16) in
  let rec loop () =
    match Common.by_work_desc app (Builder.unassigned b) with
    | [] -> Ok b
    | heaviest :: _ ->
      decr budget;
      if !budget <= 0 then
        Error "placement did not converge (grouping fallback oscillates)"
      else (
        match Common.acquire_with_grouping b ~style:`Best heaviest with
        | Error e -> Error e
        | Ok gid ->
          Common.fill b gid (Common.by_work_desc app (Builder.unassigned b));
          loop ())
  in
  loop ()

(* Same tolerance/comparison as Demand.fits, so the compute-capacity
   fast-forward below skips a candidate exactly when the probe would
   reject it on the compute branch. *)
let tolerance = 1e-9

let leq value capacity = value <= (capacity *. (1.0 +. tolerance)) +. tolerance

(* Candidate-queue variant: the round seeds come from a lazy-deletion
   max-heap stamped with per-operator resurrection generations, and the
   fill walk follows the static work-descending permutation through a
   path-compressed rank walker, binary-searching past the prefix whose
   compute demand alone already exceeds the group's remaining CPU
   capacity (those candidates are rejected by the probe without reading
   any other state, so skipping them cannot change the placement).
   Candidates that pass the fast-forward are probed exactly like the
   scan path, in the same order, so the commit sequence — and therefore
   the resulting allocation — is identical. *)
let run_queue _rng app platform =
  let b = Builder.create app platform in
  let n = App.n_operators app in
  let rho = App.rho app in
  (* Static fill order: work desc, id asc — Common.by_work_desc's
     comparator over the full operator set.  Works are prefetched into a
     float array so the comparator stays unboxed ([Float.compare] on
     float-array reads compiles to a primitive comparison); the
     polymorphic-compare version boxed two floats per comparison, which
     the allocation profile showed as ~10M minor words of anonymous
     placement self at N=100k.  The order is total, so the merge sort
     of [Array.stable_sort] gives the same permutation as a heap sort
     with about half the comparisons. *)
  let w = Array.init n (App.work app) in
  let perm = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare w.(b) w.(a) in
      if c <> 0 then c else Int.compare a b)
    perm;
  (* pos_work.(pos) is the probe's compute contribution of the operator
     at that rank: the same float expression Ledger.probe_add adds. *)
  let pos_work = Array.map (fun i -> rho *. w.(i)) perm in
  let rank = Cand_queue.Rank.of_order perm in
  let alive i = Builder.assignment b i = None in
  (* ver.(i) bumps on every assignment-status change of operator i; a
     seed entry is valid only while its stored stamp is current, so an
     operator assigned after being enqueued can never win a pop, and a
     resurrected operator re-enters with a fresh stamp. *)
  let ver = Array.make n 0 in
  let seeds = Cand_queue.create () in
  Array.iter
    (fun i -> Cand_queue.push seeds ~score:(App.work app i) ~tie:i ~gen:0 i)
    perm;
  let note_assigned i = ver.(i) <- ver.(i) + 1 in
  let first_fit c speed from =
    if from >= n then n
    else if leq (c +. pos_work.(from)) speed then from
    else begin
      (* works are non-increasing along the rank, so (c +. work) is
         non-increasing and the fit predicate is monotone: binary-search
         the first position that fits. *)
      let lo = ref from and hi = ref n in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if leq (c +. pos_work.(mid)) speed then hi := mid else lo := mid
      done;
      !hi
    end
  in
  let fill gid =
    let speed = (Builder.config b gid).Catalog.cpu.Catalog.speed in
    let pos = ref 0 in
    while !pos < n do
      let c = Ledger.compute_load (Builder.ledger b) gid in
      let p = Cand_queue.Rank.first rank ~alive (first_fit c speed !pos) in
      if p >= n then pos := n
      else begin
        let op = Cand_queue.Rank.element rank p in
        if Builder.try_add b gid op then note_assigned op;
        pos := p + 1
      end
    done
  in
  let budget = ref ((n * n) + 16) in
  let rec loop () =
    match Cand_queue.pop_valid seeds ~gen_of:(fun i -> ver.(i)) with
    | None -> Ok b
    | Some heaviest ->
      decr budget;
      if !budget <= 0 then
        Error "placement did not converge (grouping fallback oscillates)"
      else begin
        let sold = ref false in
        let on_release op =
          sold := true;
          ver.(op) <- ver.(op) + 1;
          Cand_queue.push seeds ~score:(App.work app op) ~tie:op
            ~gen:ver.(op) op
        in
        match Common.acquire_with_grouping ~on_release b ~style:`Best heaviest with
        | Error e -> Error e
        | Ok gid ->
          (* a sell resurrected operators: the rank walker's dead-prefix
             compression no longer holds. *)
          if !sold then Cand_queue.Rank.reset rank;
          List.iter note_assigned (Builder.members b gid);
          fill gid;
          loop ()
      end
  in
  loop ()

let run rng app platform =
  if !candidate_queue_enabled then run_queue rng app platform
  else run_scan rng app platform
