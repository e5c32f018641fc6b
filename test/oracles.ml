(* Reference implementations the suites compare production code against.
   Each needs only public types; production never runs them. *)

module Optree = Insp.Optree
module Simplex = Insp.Simplex

(* A point satisfies every constraint of the LP (and non-negativity)
   within 1e-6. *)
let lp_feasible (problem : Simplex.problem) point =
  let n = Array.length problem.Simplex.objective in
  Array.length point = n
  && Array.for_all (fun v -> v >= -1e-6) point
  && List.for_all
       (fun (c : Simplex.constr) ->
         let lhs = ref 0.0 in
         for j = 0 to n - 1 do
           lhs := !lhs +. (c.Simplex.coeffs.(j) *. point.(j))
         done;
         match c.Simplex.relation with
         | Simplex.Le -> !lhs <= c.Simplex.bound +. 1e-6
         | Simplex.Ge -> !lhs >= c.Simplex.bound -. 1e-6
         | Simplex.Eq -> Float.abs (!lhs -. c.Simplex.bound) <= 1e-6)
       problem.Simplex.constraints

(* Depth-first branch and bound over Simplex relaxations: each node
   solves the LP relaxation, prunes on bound or infeasibility, and
   otherwise branches on the first integer variable with a fractional
   value by adding [x <= floor v] / [x >= ceil v].  [proven] is false
   when [node_limit] nodes did not finish the search. *)
type milp_result = { solution : Simplex.solution option; proven : bool }

let milp_solve ?(node_limit = 100_000) (t : Insp.Milp.t) =
  let problem = t.Insp.Milp.problem in
  let n = Array.length problem.Simplex.objective in
  let better a b = if problem.Simplex.maximize then a > b else a < b in
  let unit_row j =
    let coeffs = Array.make n 0.0 in
    coeffs.(j) <- 1.0;
    coeffs
  in
  let fractional (sol : Simplex.solution) =
    List.find_opt
      (fun j ->
        let v = sol.Simplex.values.(j) in
        Float.abs (v -. Float.round v) > 1e-6)
      t.Insp.Milp.integer_vars
  in
  let best = ref None and nodes = ref 0 and truncated = ref false in
  let rec explore extra =
    if !nodes >= node_limit then truncated := true
    else begin
      incr nodes;
      match
        Simplex.solve
          { problem with
            Simplex.constraints = problem.Simplex.constraints @ extra }
      with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded -> truncated := true
      | Simplex.Optimal sol -> (
        let dominated =
          match !best with
          | Some (b : Simplex.solution) ->
            not (better sol.Simplex.objective_value b.Simplex.objective_value)
          | None -> false
        in
        if not dominated then
          match fractional sol with
          | None -> best := Some sol
          | Some j ->
            let lo = Float.floor sol.Simplex.values.(j) in
            explore
              ({ Simplex.coeffs = unit_row j; relation = Simplex.Le; bound = lo }
              :: extra);
            explore
              ({ Simplex.coeffs = unit_row j; relation = Simplex.Ge;
                 bound = lo +. 1.0 }
              :: extra))
    end
  in
  explore [];
  { solution = !best; proven = not !truncated }

(* Solve the §3 ILP exactly: [Some (processors used, operator groups)],
   or [None] when no integral solution was found within [node_limit]
   nodes. *)
let ilp_solve ?(node_limit = 20_000) (t : Insp.Ilp_model.t) =
  match (milp_solve ~node_limit t.Insp.Ilp_model.milp).solution with
  | None -> None
  | Some sol ->
    let max_procs = t.Insp.Ilp_model.max_procs in
    let groups = Array.make max_procs [] in
    for i = t.Insp.Ilp_model.n_operators - 1 downto 0 do
      let u = ref (-1) in
      for cand = 0 to max_procs - 1 do
        if sol.Simplex.values.(t.Insp.Ilp_model.x_index i cand) > 0.5 then
          u := cand
      done;
      if !u >= 0 then groups.(!u) <- i :: groups.(!u)
    done;
    let used = Array.to_list groups |> List.filter (fun g -> g <> []) in
    Some (List.length used, Array.of_list used)

(* Sorted object types of the tree's leaf instances: what every
   rewrite must preserve. *)
let leaf_multiset tree =
  Optree.leaf_instances tree |> List.map snd |> List.sort compare

(* Canonical key of a spec modulo commutativity. *)
type key = KLeaf of int | KOp1 of key | KOp of key * key

let rec canon (spec : Optree.spec) =
  match spec with
  | Optree.Obj k -> KLeaf k
  | Optree.Op1 a -> KOp1 (canon a)
  | Optree.Op (a, b) ->
    let ka = canon a and kb = canon b in
    if ka <= kb then KOp (ka, kb) else KOp (kb, ka)

let dedup specs =
  List.sort_uniq (fun a b -> compare (canon a) (canon b)) specs

(* Every distinct binary shape (modulo commutativity) over a leaf
   multiset of 2-10 object types: split into an unordered pair of
   non-empty sub-multisets and recurse. *)
let enumerate_shapes ~n_object_types ~leaves =
  let n = List.length leaves in
  if n < 2 || n > 10 then invalid_arg "enumerate_shapes: 2-10 leaves";
  let table = Hashtbl.create 64 in
  let rec shapes leaves =
    match Hashtbl.find_opt table leaves with
    | Some r -> r
    | None ->
      let r =
        match leaves with
        | [ k ] -> [ Optree.Obj k ]
        | _ ->
          let arr = Array.of_list leaves in
          let n = Array.length arr in
          let pairs = ref [] in
          for mask = 1 to (1 lsl n) - 2 do
            let left = ref [] and right = ref [] in
            for i = 0 to n - 1 do
              if mask land (1 lsl i) <> 0 then left := arr.(i) :: !left
              else right := arr.(i) :: !right
            done;
            let l = List.sort compare !left and r = List.sort compare !right in
            pairs := (if l <= r then (l, r) else (r, l)) :: !pairs
          done;
          List.sort_uniq compare !pairs
          |> List.concat_map (fun (ls, rs) ->
                 List.concat_map
                   (fun a -> List.map (fun b -> Optree.Op (a, b)) (shapes rs))
                   (shapes ls))
          |> dedup
      in
      Hashtbl.replace table leaves r;
      r
  in
  shapes (List.sort compare leaves) |> List.map (Optree.of_spec ~n_object_types)

(* ------------------------------------------------------------------ *)
(* Placement loops that re-sort their candidates every round           *)

(* The placement loops whose production versions sort each static
   order once per run and filter it every round: here every round
   rebuilds the unassigned pool and re-sorts it, and Object-Grouping's
   comparator recomputes popularity sums and object sets on every
   comparison.  Production must commit exactly what these commit. *)

module Builder = Insp.Builder
module Common = Insp_heuristics.Common
module Graph = Insp.Graph

let object_set g i = List.sort_uniq compare (Graph.leaves g i)

let by_work_desc g ops =
  let work = g.Graph.work in
  List.sort
    (fun a b ->
      let c = compare work.(b) work.(a) in
      if c <> 0 then c else compare a b)
    ops

(* Random with its pool as a list: every round rebuilds the increasing
   list of unassigned operators and draws from it with
   [Prng.choose_list].  Production draws the element of the same rank
   from an index over the unassigned ids.  From round n on, a repeated
   state among rounds with one operator left (forced draws) fails the
   run. *)
let list_random rng g platform =
  let b = Builder.create g platform in
  let spend = Common.round_budget b in
  let watch = Common.rounds b in
  let rec loop round =
    match Builder.unassigned b with
    | [] -> Ok b
    | pending ->
      let forced = List.length pending = 1 and watching = round >= Graph.n_nodes g in
      if not (spend ()) then Common.not_converged
      else if watching && forced && not (Common.next_round watch) then
        Common.not_converged
      else (
        if not forced then Common.restart watch;
        let op = Insp.Prng.choose_list rng pending in
        match Common.acquire_with_grouping b ~style:`Cheapest op with
        | Ok _ -> loop (round + 1)
        | Error e -> Error e)
  in
  loop 0

let resort_place_rest b =
  let g = Builder.graph b in
  let spend = Common.round_budget b in
  let rec loop () =
    match by_work_desc g (Builder.unassigned b) with
    | [] -> Ok b
    | heaviest :: _ ->
      if not (spend ()) then Common.not_converged
      else (
        match Common.acquire_with_grouping b ~style:`Best heaviest with
        | Error e -> Error e
        | Ok gid ->
          Common.fill b gid (by_work_desc g (Builder.unassigned b));
          loop ())
  in
  loop ()

let resort_object_grouping _rng g platform =
  let b = Builder.create g platform in
  let is_al i = Graph.leaves g i <> [] in
  let pop = Array.make (Insp.Objects.count g.Graph.objects) 0 in
  for i = 0 to Graph.n_nodes g - 1 do
    List.iter (fun k -> pop.(k) <- pop.(k) + 1) (object_set g i)
  done;
  let popularity_sum i =
    List.fold_left (fun acc k -> acc +. float_of_int pop.(k)) 0.0
      (object_set g i)
  in
  let shares_object a i =
    List.exists (fun k -> List.mem k (object_set g i)) (object_set g a)
  in
  let by_popularity_desc ops =
    List.sort
      (fun a b ->
        let c = compare (popularity_sum b) (popularity_sum a) in
        if c <> 0 then c else compare a b)
      ops
  in
  let spend = Common.round_budget b in
  let rec rounds () =
    if not (spend ()) then Common.not_converged
    else
      match List.filter is_al (Builder.unassigned b) |> by_popularity_desc with
      | [] -> resort_place_rest b
      | first :: others -> (
        match Common.acquire_with_grouping b ~style:`Best first with
        | Error e -> Error e
        | Ok gid ->
          Common.fill b gid
            (by_popularity_desc (List.filter (shares_object first) others));
          Common.fill b gid
            (by_work_desc g
               (List.filter (fun i -> not (is_al i)) (Builder.unassigned b)));
          rounds ())
  in
  rounds ()

let resort_object_availability _rng g platform =
  let b = Builder.create g platform in
  let n = Graph.n_nodes g in
  let servers = platform.Insp.Platform.servers in
  let by_availability_asc =
    List.sort
      (fun a b ->
        let c =
          compare
            (Insp.Servers.availability servers a)
            (Insp.Servers.availability servers b)
        in
        if c <> 0 then c else compare a b)
      (Graph.distinct_objects g (List.init n Fun.id))
  in
  let spend = Common.round_budget b in
  let rec pack_object k =
    if not (spend ()) then Common.not_converged
    else
      let pending =
        List.filter
          (fun i -> Graph.leaves g i <> [] && List.mem k (object_set g i))
          (Builder.unassigned b)
        |> by_work_desc g
      in
      match pending with
      | [] -> Ok ()
      | first :: others -> (
        match Common.acquire_with_grouping b ~style:`Best first with
        | Error e -> Error e
        | Ok gid ->
          Common.fill b gid others;
          pack_object k)
  in
  let rec objects = function
    | [] -> resort_place_rest b
    | k :: rest -> (
      match pack_object k with Error e -> Error e | Ok () -> objects rest)
  in
  objects by_availability_asc

(* ------------------------------------------------------------------ *)
(* Subtree-Bottom-Up consolidation as full scans                       *)

(* The final consolidation as lists: every pass re-sorts the live groups
   by member count and, for each loser, filters all other groups by the
   absorb's first test (the merged compute load within the winner's
   CPU, which rejects a pair without mutating), partitions the rest by
   adjacency and probes each with [Builder.try_absorb].  Production
   reaches the same candidates through a maintained order, the ledger's
   flow rows and a spare-CPU index, and must make the same probes in
   the same order. *)
let list_consolidate b =
  let ledger = Builder.ledger b in
  let fits loser gid =
    Builder.leq
      (Insp.Ledger.compute_load ledger gid
      +. Insp.Ledger.compute_load ledger loser)
      (Builder.config b gid).Insp.Catalog.cpu.Insp.Catalog.speed
  in
  let sort_by key cmp ids =
    List.map (fun g -> (key g, g)) ids
    |> List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb)
    |> List.map snd
  in
  let rec pass () =
    let by_size =
      sort_by
        (fun gid -> List.length (Builder.members b gid))
        compare (Builder.group_ids b)
    in
    let merged =
      List.exists
        (fun loser ->
          Insp.Ledger.mem_proc ledger loser
          &&
          let adj, rest =
            List.filter
              (fun gid -> gid <> loser && fits loser gid)
              (Builder.group_ids b)
            |> List.partition (fun gid ->
                   Insp.Ledger.pair_flow ledger loser gid > 0.0)
          in
          List.exists (fun winner -> Builder.try_absorb b winner loser) (adj @ rest))
        by_size
    in
    if merged then pass ()
  in
  pass ()

(* ------------------------------------------------------------------ *)
(* Server selection over lists and hash tables                          *)

(* Both selection rules as they were written before the flat tables:
   the needs as a list of (group, object) pairs, buckets and assigned
   flags in [Hashtbl]s, plans sorted by polymorphic compare.  Production
   must choose, journal and fail exactly as these do. *)

module Objects = Insp.Objects
module Servers = Insp.Servers
module Obs = Insp.Obs
module J = Insp.Obs_journal

type select_state = {
  rate : int -> float;
  servers : Servers.t;
  card_left : float array;
  link_left : float array array;
  needs : (int * int) list;
  chosen : (int * int) list array;
}

let select_init g (platform : Insp.Platform.t) ~groups =
  let needs =
    Array.to_list
      (Array.mapi
         (fun u ops -> List.map (fun k -> (u, k)) (Graph.distinct_objects g ops))
         groups)
    |> List.concat
  in
  let servers = platform.Insp.Platform.servers in
  let n_servers = Servers.n_servers servers in
  {
    rate = Objects.rate g.Graph.objects;
    servers;
    card_left = Array.init n_servers (fun l -> Servers.card servers l);
    link_left =
      Array.init n_servers (fun _ ->
          Array.make (Array.length groups) platform.Insp.Platform.server_link);
    needs;
    chosen = Array.make (Array.length groups) [];
  }

let select_tolerance = 1e-9

let can_provide st l u k =
  let rate = st.rate k in
  Servers.holds st.servers l k
  && st.card_left.(l) +. select_tolerance >= rate
  && st.link_left.(l).(u) +. select_tolerance >= rate

let select_assign st u k l =
  let rate = st.rate k in
  st.card_left.(l) <- st.card_left.(l) -. rate;
  st.link_left.(l).(u) <- st.link_left.(l).(u) -. rate;
  st.chosen.(u) <- (k, l) :: st.chosen.(u)

let select_finish st = Array.map (List.sort compare) st.chosen

let note_download u k l ~rule ~candidates =
  if Obs.journaling () then
    Obs.event
      (J.Download
         { group = u; object_type = k; server = l; rule; candidates = candidates () })

let note_failed u k reason =
  if Obs.journaling () then
    Obs.event (J.Download_failed { object_type = k; group = Some u; reason })

let list_random_servers rng g platform ~groups =
  let st = select_init g platform ~groups in
  let rec loop = function
    | [] -> Ok (select_finish st)
    | (u, k) :: pending -> (
      let capable =
        List.filter (fun l -> can_provide st l u k) (Servers.providers st.servers k)
      in
      match capable with
      | [] ->
        let msg =
          Printf.sprintf "no server can still provide o%d to processor %d" k u
        in
        note_failed u k msg;
        Error msg
      | _ ->
        let l = Insp.Prng.choose_list rng capable in
        note_download u k l ~rule:"random" ~candidates:(fun () -> capable);
        select_assign st u k l;
        loop pending)
  in
  loop st.needs

let list_three_loop g platform ~groups =
  let st = select_init g platform ~groups in
  let exception Failed of string in
  let all_needs = st.needs in
  let objects_in_needs = List.sort_uniq compare (List.map snd all_needs) in
  let bucket : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (u, k) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt bucket k) in
      Hashtbl.replace bucket k (u :: prev))
    all_needs;
  List.iter
    (fun k -> Hashtbl.replace bucket k (List.rev (Hashtbl.find bucket k)))
    objects_in_needs;
  let assigned : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let pending_count : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace pending_count k (List.length (Hashtbl.find bucket k)))
    objects_in_needs;
  let n_pending k = Option.value ~default:0 (Hashtbl.find_opt pending_count k) in
  let needing k =
    List.filter
      (fun u -> not (Hashtbl.mem assigned (u, k)))
      (Option.value ~default:[] (Hashtbl.find_opt bucket k))
  in
  let assign_need u k l =
    select_assign st u k l;
    Hashtbl.replace assigned (u, k) ();
    Hashtbl.replace pending_count k (n_pending k - 1)
  in
  try
    (* Loop 1: forced downloads of single-server objects. *)
    List.iter
      (fun (k, l) ->
        List.iter
          (fun u ->
            if can_provide st l u k then begin
              note_download u k l ~rule:"exclusive" ~candidates:(fun () -> [ l ]);
              assign_need u k l
            end
            else
              let msg =
                Printf.sprintf
                  "exclusive server S%d cannot sustain all downloads of o%d" l k
              in
              note_failed u k msg;
              raise (Failed msg))
          (needing k))
      (Servers.exclusive_objects st.servers);
    (* Loop 2: saturate single-object servers. *)
    List.iter
      (fun l ->
        match Servers.objects_on st.servers l with
        | [ k ] ->
          List.iter
            (fun u ->
              if can_provide st l u k then begin
                note_download u k l ~rule:"single_object"
                  ~candidates:(fun () -> [ l ]);
                assign_need u k l
              end)
            (needing k)
        | _ -> ())
      (Servers.single_object_servers st.servers);
    (* Loop 3: remaining needs, objects in decreasing nbP / nbS. *)
    let ratio k =
      let nb_p = n_pending k in
      let nb_s =
        List.length
          (List.filter
             (fun l -> st.card_left.(l) +. select_tolerance >= st.rate k)
             (Servers.providers st.servers k))
      in
      if nb_s = 0 then infinity else float_of_int nb_p /. float_of_int nb_s
    in
    let ordered =
      List.filter (fun k -> n_pending k > 0) objects_in_needs
      |> List.map (fun k -> (k, ratio k))
      |> List.sort (fun (a, ra) (b, rb) ->
             let c = compare rb ra in
             if c <> 0 then c else compare a b)
      |> List.map fst
    in
    List.iter
      (fun k ->
        List.iter
          (fun u ->
            let key l = Float.min st.card_left.(l) st.link_left.(l).(u) in
            let ranked =
              Servers.providers st.servers k
              |> List.filter (fun l -> can_provide st l u k)
              |> List.sort (fun a b ->
                     let c = compare (key b) (key a) in
                     if c <> 0 then c else compare a b)
            in
            match ranked with
            | [] ->
              let msg =
                Printf.sprintf
                  "no server has bandwidth left to provide o%d to processor %d"
                  k u
              in
              note_failed u k msg;
              raise (Failed msg)
            | l :: _ ->
              note_download u k l ~rule:"ratio" ~candidates:(fun () -> ranked);
              assign_need u k l)
          (needing k))
      ordered;
    Ok (select_finish st)
  with Failed msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Exact branch and bound with its own feasibility model              *)

(* The exact search with a from-scratch feasibility model: operator
   groups as lists, each candidate's demand summed from
   scratch with [Demand.of_group], and constraint (5) checked against
   every other group with a tree-only flow sum ([rho] times the output
   of each child whose parent is across), rejected above
   [proc_link + 1e-9].  Production must find what this finds, up to
   the gap between that rejection rule and the heuristics' tolerance
   and to the last bits of incremental sums. *)

module App = Insp.App
module Alloc = Insp.Alloc
module Catalog = Insp.Catalog
module Check = Insp.Check
module Demand = Insp.Demand
module Platform = Insp.Platform

type exact_result = {
  n_procs : int;
  cost : float;
  alloc : Alloc.t;
  proven : bool;
  nodes : int;
}

let ceil_div x y = int_of_float (Float.ceil (x /. y -. 1e-9))

let exact_solve ?(node_limit = 2_000_000) app platform =
  let catalog = platform.Platform.catalog in
  if not (Catalog.is_homogeneous catalog) then
    Error "Exact.solve: platform must be homogeneous (CONSTR-HOM)"
  else begin
    let config = Catalog.cheapest catalog in
    let speed = config.Catalog.cpu.Catalog.speed in
    let proc_cost = Catalog.config_cost catalog config in
    let tree = App.tree app and graph = Graph.of_app app in
    let n = App.n_operators app in
    let order = Array.of_list (Optree.preorder tree) in
    let rho = App.rho app in
    (* Suffix sums of remaining work along the assignment order, for the
       compute-based bound. *)
    let remaining = Array.make (n + 1) 0.0 in
    for pos = n - 1 downto 0 do
      remaining.(pos) <- remaining.(pos + 1) +. (rho *. App.work app order.(pos))
    done;
    let groups = Array.make n [] in
    let best : exact_result option ref = ref None in
    let nodes = ref 0 in
    let truncated = ref false in
    (* Both directions: the edges from [g] into [h] and from [h] into
       [g]. *)
    let flow_between g h =
      let one_way src dst =
        List.fold_left
          (fun acc i ->
            match Optree.parent tree i with
            | Some p when List.mem p dst -> acc +. (rho *. App.output_size app i)
            | Some _ | None -> acc)
          0.0 src
      in
      one_way g h +. one_way h g
    in
    let fits_with op gid =
      let candidate = op :: groups.(gid) in
      Demand.fits config (Demand.of_group graph candidate)
      &&
      let ok = ref true in
      for other = 0 to n - 1 do
        if other <> gid && groups.(other) <> [] then
          if
            flow_between candidate groups.(other)
            > platform.Platform.proc_link +. 1e-9
          then ok := false
      done;
      !ok
    in
    let try_complete n_used =
      let live = Array.sub groups 0 n_used in
      match Insp.Server_select.sophisticated app platform ~groups:live with
      | Error _ -> ()
      | Ok downloads ->
        let alloc =
          Alloc.of_groups
            ~configs:(Array.make n_used config)
            ~groups:live ~downloads
        in
        if Check.check app platform alloc = [] then begin
          let cost = float_of_int n_used *. proc_cost in
          match !best with
          | Some b when b.cost <= cost -> ()
          | _ ->
            best :=
              Some
                {
                  n_procs = n_used;
                  cost;
                  alloc;
                  proven = false;
                  nodes = !nodes;
                }
        end
    in
    let best_procs () =
      match !best with Some b -> b.n_procs | None -> n + 1
    in
    let rec dfs pos n_used =
      if !nodes >= node_limit then truncated := true
      else begin
        incr nodes;
        if pos = n then try_complete n_used
        else begin
          let bound = n_used + max 0 (ceil_div remaining.(pos) speed - n_used) in
          if bound < best_procs () then begin
            let op = order.(pos) in
            (* Existing groups first, then (canonically) one new group. *)
            for gid = 0 to n_used - 1 do
              if best_procs () > n_used && fits_with op gid then begin
                groups.(gid) <- op :: groups.(gid);
                dfs (pos + 1) n_used;
                groups.(gid) <- List.tl groups.(gid)
              end
            done;
            if
              n_used < n
              && n_used + 1 < best_procs ()
              && fits_with op n_used
            then begin
              groups.(n_used) <- [ op ];
              dfs (pos + 1) (n_used + 1);
              groups.(n_used) <- []
            end
          end
        end
      end
    in
    dfs 0 0;
    match !best with
    | None ->
      if !truncated then Error "Exact.solve: node limit reached, no solution"
      else Error "Exact.solve: no feasible solution exists"
    | Some b -> Ok { b with proven = not !truncated; nodes = !nodes }
  end
