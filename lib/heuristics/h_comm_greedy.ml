module Graph = Insp_tree.Graph
module Ledger = Insp_mapping.Ledger

(* All producer-consumer edges, heaviest communication first: an edge
   weighs its producer's output at its consumer's rate. *)
let edges_by_weight_desc g =
  let edges = ref [] in
  for i = 0 to Graph.n_nodes g - 1 do
    for k = 0 to Graph.n_consumers g i - 1 do
      let c = Graph.consumer g i k in
      edges := (i, c, Graph.rate g c *. g.Graph.output.(i)) :: !edges
    done
  done;
  List.sort
    (fun (a, ca, wa) (b, cb, wb) ->
      let c = compare wb wa in
      if c <> 0 then c
      else
        let c = compare a b in
        if c <> 0 then c else compare ca cb)
    !edges

(* A purchase for one operator that ends the placement when it fails. *)
let buy_single b ~style op =
  match Common.acquire_for b ~style [ op ] with
  | Ok _ -> Ok ()
  | Error _ -> Common.no_host [ op ]

let place_pair b i p =
  match Common.acquire_for b ~style:`Cheapest [ i; p ] with
  | Ok _ -> Ok ()
  | Error _ -> (
    match buy_single b ~style:`Best i with
    | Error _ as e -> e
    | Ok () -> buy_single b ~style:`Best p)

(* "Attempts to accommodate the other operator as well": in the
   constructive setting the host processor may be exchanged for a larger
   model that fits both. *)
let place_single_next_to b ~host ~op =
  if Builder.try_add_upgrade b host op then Ok ()
  else buy_single b ~style:`Best op

(* Ablation knob: disable the merge sweeps to measure the paper's
   literal one-pass edge processing.  Not thread-safe. *)
let merge_sweeps_enabled = ref true

let with_merge_sweeps enabled f =
  let saved = !merge_sweeps_enabled in
  merge_sweeps_enabled := enabled;
  Fun.protect ~finally:(fun () -> merge_sweeps_enabled := saved) f

(* Case (iii) of the paper: for edges whose endpoints ended up on two
   different processors, try to accommodate both groups on one processor
   and sell the other.  Processing edges heaviest-first means both
   endpoints are rarely assigned when an edge is first visited, so the
   merge case is swept repeatedly until it stops firing.

   Re-probing an edge whose endpoint groups have not changed since both
   merge directions last failed must fail again: the absorb verdict
   depends only on the two groups' ledger state (loads, flows, needs)
   and the static catalog, every observable change of which bumps the
   groups' generation stamps (Ledger.generation).  Caching the failed
   [(group, stamp)] pair per edge therefore skips exactly the probes
   that cannot fire, making each quiescent sweep O(live edges) instead
   of O(edges × probe). *)
let merge_sweeps b edges =
  let led = Builder.ledger b in
  let edges = Array.of_list edges in
  let failed = Array.make (Array.length edges) (-1, -1, -1, -1) in
  let rec sweep budget =
    if budget > 0 then begin
      let changed = ref false in
      Array.iteri
        (fun idx (i, p, _) ->
          match (Builder.assignment b i, Builder.assignment b p) with
          | Some gi, Some gp when gi <> gp ->
            let key =
              (gi, Ledger.generation led gi, gp, Ledger.generation led gp)
            in
            if failed.(idx) = key then ()
            else if
              Builder.try_absorb_upgrade b gi gp
              || Builder.try_absorb_upgrade b gp gi
            then changed := true
            else failed.(idx) <- key
          | _ -> ())
        edges;
      if !changed then sweep (budget - 1)
    end
  in
  sweep (Graph.n_nodes (Builder.graph b))

let rec place_each b = function
  | [] -> Ok b
  | op :: rest -> (
    match buy_single b ~style:`Cheapest op with
    | Error _ as e -> e
    | Ok () -> place_each b rest)

let run _rng g platform =
  let b = Builder.create g platform in
  let rec handle = function
    | [] -> Ok ()
    | (i, p, _) :: rest -> (
      let step =
        match (Builder.assignment b i, Builder.assignment b p) with
        | None, None -> place_pair b i p
        | Some gi, None -> place_single_next_to b ~host:gi ~op:p
        | None, Some gp -> place_single_next_to b ~host:gp ~op:i
        | Some gi, Some gp ->
          if gi <> gp then
            ignore
              (Builder.try_absorb_upgrade b gi gp
              || Builder.try_absorb_upgrade b gp gi);
          Ok ()
      in
      match step with Error e -> Error e | Ok () -> handle rest)
  in
  let edges = edges_by_weight_desc g in
  match handle edges with
  | Error e -> Error e
  | Ok () -> (
    if !merge_sweeps_enabled then merge_sweeps b edges;
    (* Only a single-operator graph has no edges; place any leftover. *)
    place_each b (Builder.unassigned b))
