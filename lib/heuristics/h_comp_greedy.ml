module Graph = Insp_tree.Graph
module Ledger = Insp_mapping.Ledger
module Catalog = Insp_platform.Catalog

(* Same tolerance/comparison as Demand.fits, so the compute-capacity
   fast-forward below skips a candidate exactly when the probe would
   reject it on the compute branch. *)
let tolerance = 1e-9

let leq value capacity = value <= (capacity *. (1.0 +. tolerance)) +. tolerance

(* One order drives the whole heuristic: operators by non-increasing
   compute demand [rate·work] (ties by id), walked through a
   path-compressed rank walker that skips assigned operators.  Each
   round's seed is the first unassigned operator from position 0; the
   fill walk follows the same order from the start, binary-searching
   past the prefix whose compute demand alone already exceeds the
   group's remaining CPU capacity (those candidates are rejected by the
   probe without reading any other state, so skipping them cannot
   change the placement).  Candidates that pass the fast-forward are
   probed in order, so the commit sequence is that of re-sorting the
   unassigned pool every round and probing every candidate.  On a tree
   every rate is rho and the order is the work order. *)
let run _rng g platform =
  let b = Builder.create g platform in
  let n = Graph.n_nodes g in
  (* Each operator's probe compute term, the same float expression
     Ledger.probe_add adds; App.make's validation keeps it >= 0, so the
     rank order is a radix sort of these floats. *)
  let { Graph.rates; rate_stride; work; _ } = g in
  let load = Array.init n (fun i -> rates.(i * rate_stride) *. work.(i)) in
  let rank = Rank.descending load in
  (* pos_work.(pos) is the compute term of the operator at that rank *)
  let pos_work = Array.init n (fun pos -> load.(Rank.element rank pos)) in
  let alive i = Builder.assignment b i = None in
  let first_fit c speed from =
    if from >= n then n
    else if leq (c +. pos_work.(from)) speed then from
    else begin
      (* loads are non-increasing along the rank, so (c +. load) is
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
      let p = Rank.first rank ~alive (first_fit c speed !pos) in
      if p >= n then pos := n
      else begin
        ignore (Builder.try_add b gid (Rank.element rank p));
        pos := p + 1
      end
    done
  in
  let rounds = Common.rounds b in
  let rec loop () =
    let p = Rank.first rank ~alive 0 in
    if p >= n then Ok b
    else if not (Common.next_round rounds) then Common.not_converged
    else begin
      let sold = ref false in
      let on_release _ = sold := true in
      match
        Common.acquire_with_grouping ~on_release b ~style:`Best
          (Rank.element rank p)
      with
      | Error e -> Error e
      | Ok gid ->
        (* a sell resurrected operators: the rank walker's dead-prefix
           compression no longer holds. *)
        if !sold then Rank.reset rank;
        fill gid;
        loop ()
    end
  in
  loop ()
