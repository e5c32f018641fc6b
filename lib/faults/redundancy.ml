module Platform = Insp_platform.Platform
module Catalog = Insp_platform.Catalog
module Alloc = Insp_mapping.Alloc
module Cost = Insp_mapping.Cost
module Obs = Insp_obs.Obs

(* All k-subsets of {0..n-1}, lexicographic. *)
let subsets ~k n =
  let rec go lo k =
    if k = 0 then [ [] ]
    else if lo >= n then []
    else
      List.map (fun s -> lo :: s) (go (lo + 1) (k - 1)) @ go (lo + 1) k
  in
  if k < 0 then invalid_arg "Redundancy.subsets: k < 0";
  go 0 k

let survives g platform alloc ~failed =
  match Repair.run ~allow_rebuy:false g platform alloc ~failed with
  | Ok _ -> true
  | Error _ -> false

let first_failing g platform alloc ~k =
  List.find_opt
    (fun failed -> not (survives g platform alloc ~failed))
    (subsets ~k (Alloc.n_procs alloc))

let with_spare alloc config =
  Alloc.make
    (Array.append (Alloc.procs alloc)
       [| { Alloc.config; operators = []; downloads = [] } |])

type hardened = {
  alloc : Alloc.t;
  k : int;
  spares : int;
  base_cost : float;
  cost : float;
}

(* Spares bought before [harden] gives up. *)
let max_spares = 8

let harden ?(k = 1) g platform alloc =
  if k < 0 then invalid_arg "Redundancy.harden: k < 0";
  let catalog = platform.Platform.catalog in
  let base_cost = Cost.of_alloc catalog alloc in
  let all_survive a = first_failing g platform a ~k = None in
  (* Grow with top-of-catalog spares until every k-failure is
     repairable by migration alone... *)
  let rec grow a spares =
    if all_survive a then Ok (a, spares)
    else if spares >= max_spares then
      Error
        (Printf.sprintf "not %d-resilient after %d spares" k max_spares)
    else grow (with_spare a (Catalog.best catalog)) (spares + 1)
  in
  match grow alloc 0 with
  | Error _ as e -> e
  | Ok (a, spares) ->
    (* ...then cheapen each spare to the least-cost configuration that
       preserves the property (configs are sorted by increasing cost,
       so the first survivor is the cheapest; the top config is known
       to work). *)
    let n0 = Alloc.n_procs alloc in
    let best = ref a in
    for u = n0 to n0 + spares - 1 do
      let rec try_cfgs = function
        | [] -> ()
        | c :: rest ->
          let cand = Alloc.with_config !best u c in
          if all_survive cand then best := cand else try_cfgs rest
      in
      try_cfgs (Catalog.configs catalog)
    done;
    Obs.incr ~by:spares "faults.redundancy.spares";
    Ok { alloc = !best; k; spares; base_cost; cost = Cost.of_alloc catalog !best }

let frontier ?(k_max = 1) g platform alloc =
  List.init (k_max + 1) (fun k -> (k, harden ~k g platform alloc))
