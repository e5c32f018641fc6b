module Graph = Insp_tree.Graph
module Ledger = Insp_mapping.Ledger
module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform

type style = [ `Best | `Cheapest ]

let by_work_desc g ops =
  let work = g.Graph.work in
  List.sort
    (fun a b ->
      let c = compare work.(b) work.(a) in
      if c <> 0 then c else compare a b)
    ops

let fill b gid candidates =
  List.iter
    (fun op ->
      if Builder.assignment b op = None then ignore (Builder.try_add b gid op))
    candidates

let best_config b = Catalog.best (Builder.platform b).Platform.catalog

let no_host members =
  Error
    (Printf.sprintf "no processor can host operators {%s}"
       (String.concat ", " (List.map string_of_int members)))

(* Either purchase is one probe: `Best probes the best configuration,
   `Cheapest scans the catalog in the probe that buys. *)
let acquire_for b ~style members =
  match style with
  | `Best -> Builder.acquire b ~config:(best_config b) ~members
  | `Cheapest -> Builder.acquire_cheapest b ~members

(* Most communication-demanding neighbour (over graph edges) of a
   member set, excluding the members themselves: an edge weighs its
   producer's output at its consumer's rate. *)
let heaviest_outside_neighbor g members =
  let in_set i = List.mem i members in
  let best = ref None in
  let consider cand weight =
    match !best with
    | Some (_, w) when w >= weight -> ()
    | Some _ | None -> best := Some (cand, weight)
  in
  List.iter
    (fun m ->
      for k = 0 to Graph.n_producers g m - 1 do
        let j = Graph.producer g m k in
        if not (in_set j) then consider j (Graph.rate g m *. g.Graph.output.(j))
      done;
      for k = 0 to Graph.n_consumers g m - 1 do
        let c = Graph.consumer g m k in
        if not (in_set c) then consider c (Graph.rate g c *. g.Graph.output.(m))
      done)
    members;
  Option.map fst !best

(* The grouping step applied iteratively: each round pulls in the member
   set's most communication-demanding neighbour (selling the neighbour's
   processor if it had one) until the set fits on one processor.  The
   paper describes a single pairing round; iterating is its natural
   completion and is required when a chain of tree edges each exceeds the
   processor-link bandwidth, which forces more than two operators onto
   one machine.  The round budget is a mutable knob so the ablation
   bench can measure the paper's single-round variant. *)
let collapse_rounds = ref 8

let with_collapse_rounds n f =
  if n < 1 then invalid_arg "Common.with_collapse_rounds: n >= 1";
  let saved = !collapse_rounds in
  collapse_rounds := n;
  Fun.protect ~finally:(fun () -> collapse_rounds := saved) f

let acquire_with_grouping ?(on_release = fun _ -> ()) b ~style op =
  let g = Builder.graph b in
  let rec grow members rounds =
    match acquire_for b ~style members with
    | Ok gid -> Ok gid
    | Error _ ->
      if rounds <= 0 then no_host members
      else (
        match heaviest_outside_neighbor g members with
        | None -> no_host members
        | Some neighbor ->
          (match Builder.assignment b neighbor with
          | Some gid ->
            let released = Builder.members b gid in
            Builder.sell b gid;
            List.iter on_release released
          | None -> ());
          grow (neighbor :: members) (rounds - 1))
  in
  grow [ op ] !collapse_rounds

let round_limit b =
  let n = Graph.n_nodes (Builder.graph b) in
  (n * n) + 16

let round_budget b =
  let left = ref (round_limit b) in
  fun () ->
    decr left;
    !left > 0

let not_converged =
  Error "placement did not converge (grouping fallback oscillates)"

(* A deterministic loop's rounds: the budget's, plus an exit on a
   repeated state.  A round is a function of the builder's state alone
   (and of inputs fixed until [restart]), in which processor ids matter
   only by their order: the ledger (hosts, configs, loads, flows), the
   acquisition order (ascending ids) and the next id the arena hands
   out (above every live one).  So once the state at a round equals, up
   to renumbering ids by rank, the state at an earlier round, the loop
   repeats that stretch forever and could only end by spending its
   budget: it fails as the budget would, at once.  Brent's cycle
   finding: [saved] is the state's key at the last power-of-two round,
   and every later round compares its key with it.  Saving starts at
   the first power of two from the node count on, so a loop that
   converges sooner (the loops seen need a few dozen rounds at most)
   builds no keys. *)
type rounds = {
  b : Builder.t;
  mutable round : int;
  mutable saved : string option;
}

let rounds b = { b; round = 1; saved = None }

let next_round r =
  let round = r.round in
  let checkpoint =
    round >= Graph.n_nodes (Builder.graph r.b) && round land (round - 1) = 0
  in
  let key =
    if checkpoint || Option.is_some r.saved then
      Some (Ledger.state_key (Builder.ledger r.b))
    else None
  in
  if round >= round_limit r.b || (Option.is_some r.saved && key = r.saved) then
    false
  else begin
    if checkpoint then r.saved <- key;
    r.round <- round + 1;
    true
  end

let restart r = r.saved <- None

(* One work order over every operator, sorted once: a grouping sell can
   release operators that were placed before the call, so the order
   covers them too.  Each round seeds with its first unassigned element
   and fills walking all of it ([fill] skips assigned operators), which
   probes exactly what re-sorting the unassigned pool every round
   would. *)
let place_rest b =
  let g = Builder.graph b in
  let order = by_work_desc g (List.init (Graph.n_nodes g) Fun.id) in
  let rounds = rounds b in
  let rec loop () =
    (* lint: allow p3 — one O(n) scan per round, like the fill walk *)
    match List.find_opt (fun i -> Builder.assignment b i = None) order with
    | None -> Ok b
    | Some heaviest ->
      if not (next_round rounds) then not_converged
      else (
        match acquire_with_grouping b ~style:`Best heaviest with
        | Error e -> Error e
        | Ok gid ->
          fill b gid order;
          loop ())
  in
  loop ()
