(* Reference max-min fair bandwidth allocation under the bounded
   multi-port model (paper §2.2): the from-scratch oracle the
   incremental kernel ([Insp.Fair_share_inc]) is tested against.

   Each flow crosses a set of capacity constraints (its sender's network
   card, its receiver's network card, the point-to-point link).  The
   allocation is computed by progressive filling: repeatedly find the
   constraint with the smallest fair share among its unfrozen flows,
   freeze those flows at that share, and continue — the classic max-min
   fixpoint.  A resource can serve many flows at once (multi-port), but
   the sum of its flows' rates never exceeds its capacity (bounded). *)

(* [compute ~caps ~membership] returns one rate per flow.
   [membership.(f)] lists the constraint indices flow [f] crosses (at
   least one, each a valid index into [caps]; capacities must be
   non-negative).  Rates are non-negative and saturate at least one
   constraint of every flow. *)
let compute ~caps ~membership =
  let n_flows = Array.length membership in
  let n_caps = Array.length caps in
  Array.iter
    (fun ms ->
      if ms = [] then invalid_arg "Fair_share.compute: flow with no constraint";
      List.iter
        (fun c ->
          if c < 0 || c >= n_caps then
            invalid_arg "Fair_share.compute: bad constraint index")
        ms)
    membership;
  Array.iter
    (fun c -> if c < 0.0 then invalid_arg "Fair_share.compute: negative cap")
    caps;
  let rates = Array.make n_flows 0.0 in
  let frozen = Array.make n_flows false in
  let remaining = Array.copy caps in
  (* Counted once up front and decremented as flows freeze — the counts
     are integers, so this is exactly equivalent to the per-round rescan
     it replaces, at O(membership) total instead of O(rounds * flows *
     caps). *)
  let unfrozen_count = Array.make n_caps 0 in
  Array.iter
    (fun ms ->
      List.iter (fun c -> unfrozen_count.(c) <- unfrozen_count.(c) + 1) ms)
    membership;
  let n_frozen = ref 0 in
  while !n_frozen < n_flows do
    (* Bottleneck constraint: smallest fair share among its unfrozen
       flows. *)
    let best_c = ref (-1) in
    let best_share = ref infinity in
    for c = 0 to n_caps - 1 do
      if unfrozen_count.(c) > 0 then begin
        let share = remaining.(c) /. float_of_int unfrozen_count.(c) in
        if share < !best_share then begin
          best_share := share;
          best_c := c
        end
      end
    done;
    assert (!best_c >= 0);
    let share = Float.max 0.0 !best_share in
    Array.iteri
      (fun f ms ->
        if (not frozen.(f)) && List.mem !best_c ms then begin
          rates.(f) <- share;
          frozen.(f) <- true;
          incr n_frozen;
          (* Clamp at the constraint level: float rounding when a frozen
             flow spans several near-saturated constraints can push
             [remaining] slightly negative, which would later surface as
             a negative best_share for an unrelated flow. *)
          List.iter
            (fun c ->
              remaining.(c) <- Float.max 0.0 (remaining.(c) -. share);
              unfrozen_count.(c) <- unfrozen_count.(c) - 1)
            ms
        end)
      membership
  done;
  rates

let tolerance = 1e-6

(* Independent verifier for the property tests: every constraint is
   respected (tolerance 1e-6) and every flow is bottlenecked — it
   crosses at least one constraint that is saturated and where the flow
   has a maximal rate among the constraint's flows. *)

let is_max_min ~caps ~membership ~rates =
  let n_caps = Array.length caps in
  let load = Array.make n_caps 0.0 in
  Array.iteri
    (fun f ms -> List.iter (fun c -> load.(c) <- load.(c) +. rates.(f)) ms)
    membership;
  let respected =
    Array.for_all (fun r -> r >= -.tolerance) rates
    && Array.for_all2 (fun l cap -> l <= cap +. tolerance) load caps
  in
  (* Each flow must be bottlenecked somewhere: one of its constraints is
     saturated and no flow crossing that constraint gets strictly more. *)
  let indexed = Array.to_list membership |> List.mapi (fun f ms -> (f, ms)) in
  respected
  && List.for_all
       (fun (f, ms) ->
         List.exists
           (fun c ->
             load.(c) >= caps.(c) -. tolerance
             && List.for_all
                  (fun (g, gs) ->
                    (not (List.mem c gs))
                    || rates.(g) <= rates.(f) +. tolerance)
                  indexed)
           ms)
       indexed
