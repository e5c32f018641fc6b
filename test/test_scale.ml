(* 100k-operator scale machinery (DESIGN.md §16):

   - Comp-Greedy's rank-walker loop must commit byte-identical
     solutions to the scan-everything oracle below on a batch of random
     small/mid instances and on mixed-rate shared DAGs (the walker may
     only skip probes that were certain to fail), and every heuristic's
     solutions on the same corpus are pinned by test/solutions.golden;
   - the rank walker itself, against a naive linear scan;
   - the arena id discipline (dense ids, never reused, generation
     stamps);
   - the typed generator errors for operator counts the platform
     catalog cannot host. *)

module Builder = Insp.Builder
module Common = Insp_heuristics.Common
module Rank = Insp_heuristics.Rank

(* ------------------------------------------------------------------ *)
(* Rank-walker Comp-Greedy vs the scan oracle: identical solutions     *)

(* Everything observable about a solve outcome except probe noise, on
   one line: the exact cost bits, the processor count and a digest of
   the full allocation rendering (configs, operator groups, download
   plans). *)
let render_outcome = function
  | Ok (o : Insp.Solve.outcome) ->
    Printf.sprintf "ok cost=%h procs=%d alloc=%s" o.Insp.Solve.cost
      o.Insp.Solve.n_procs
      (Digest.to_hex
         (Digest.string (Format.asprintf "%a" Insp.Alloc.pp o.Insp.Solve.alloc)))
  | Error f -> "fail " ^ Insp.Solve.failure_message f

let run_outcome h inst =
  render_outcome
    (Insp.Solve.run ~seed:1 h inst.Insp.Instance.app inst.Insp.Instance.platform)

(* The reference Comp-Greedy over the public Builder/Common API, on the
   operator-graph view: re-sort the unassigned pool every round by
   compute demand [rate·work] (ties by id), seed with its heaviest
   operator and probe every other one during the fill. *)
let scan_comp_greedy _rng g platform =
  let b = Builder.create g platform in
  let load i = Insp.Graph.rate g i *. g.Insp.Graph.work.(i) in
  let by_load_desc ops =
    List.sort
      (fun x y ->
        let c = Float.compare (load y) (load x) in
        if c <> 0 then c else Int.compare x y)
      ops
  in
  let n = Insp.Graph.n_nodes g in
  let budget = ref ((n * n) + 16) in
  let rec loop () =
    match by_load_desc (Builder.unassigned b) with
    | [] -> Ok b
    | heaviest :: _ -> (
      decr budget;
      if !budget <= 0 then
        Error "placement did not converge (grouping fallback oscillates)"
      else
        match Common.acquire_with_grouping b ~style:`Best heaviest with
        | Error e -> Error e
        | Ok gid ->
          Common.fill b gid (by_load_desc (Builder.unassigned b));
          loop ())
  in
  loop ()

let comp () =
  match Insp.Solve.find "comp" with
  | Some h -> h
  | None -> Alcotest.fail "comp heuristic missing"

let scan () =
  Insp.Solve.make ~name:"Comp-Greedy (scan)" ~key:"comp" ~randomized:false
    scan_comp_greedy

(* Instances on which Comp-Greedy's grouping fallback sells a processor
   (resurrecting operators the rank walker had skipped) and the solve
   still succeeds.  The corpus reaches a sell only on instances that
   fail anyway, so without these the walker reset after a sell would go
   unchecked. *)
let sell_instances () =
  List.map
    (fun (n, sizes, seed) ->
      let rho = if sizes = Insp.Config.Large then 0.1 else 1.0 in
      Insp.Instance.generate
        (Insp.Config.make ~alpha:1.5 ~sizes ~rho ~seed ~n_operators:n ()))
    [
      (100, Insp.Config.Small, 29);
      (20, Insp.Config.Large, 5);
      (20, Insp.Config.Large, 17);
      (20, Insp.Config.Large, 42);
      (20, Insp.Config.Large, 47);
    ]

let test_comp_queue_equivalence () =
  let comp = comp () and scan = scan () in
  let agree name inst =
    Alcotest.(check string)
      (name ^ ": Comp-Greedy and the scan oracle agree")
      (run_outcome scan inst) (run_outcome comp inst)
  in
  for idx = 0 to Helpers.corpus_size - 1 do
    agree (Printf.sprintf "case %d" idx) (Helpers.corpus_instance idx)
  done;
  List.iteri
    (fun k inst ->
      let outcome, recorder =
        Insp.Obs.with_sink (fun () ->
            Insp.Solve.run ~seed:1 comp inst.Insp.Instance.app
              inst.Insp.Instance.platform)
      in
      Alcotest.(check bool)
        (Printf.sprintf "sell case %d: Comp-Greedy sells and succeeds" k)
        true
        (Result.is_ok outcome
        && Option.value ~default:0
             (Insp.Obs_metrics.counter recorder.Insp.Obs.metrics "heur.sell")
           > 0);
      agree (Printf.sprintf "sell case %d" k) inst)
    (sell_instances ())

(* Each application's rho scaled apart, so a CSE view of the set has
   nodes whose consumers impose different rates. *)
let mixed_rates apps =
  List.mapi
    (fun k a ->
      Insp.App.make
        ~rho:(Insp.App.rho a *. (1.0 +. (0.35 *. float_of_int k)))
        ~base_work:(Insp.App.base_work a)
        ~work_factor:(Insp.App.work_factor a) ~tree:(Insp.App.tree a)
        ~objects:(Insp.App.objects a) ~alpha:(Insp.App.alpha a) ())
    apps

(* The same oracle on shared DAGs whose applications demand different
   rates: the fast-forward's monotone order is [rate·work], not work, so
   a node's rank follows the rate its consumers impose.  CSE views of
   correlated sets. *)
let test_comp_scan_mixed_rates () =
  let comp = comp () and scan = scan () in
  let ran = ref 0 in
  for seed = 0 to 11 do
    List.iter
      (fun (n_apps, n_operators) ->
        let apps, platform =
          Insp.Multi_workload.instance ~seed ~n_apps ~n_operators
        in
        let g = Insp.Dag.graph (Insp.Cse.share_apps (mixed_rates apps)) in
        let render h =
          render_outcome (Insp.Solve.run_graph ~seed:1 h g platform)
        in
        let expected = render scan in
        if String.starts_with ~prefix:"ok" expected then incr ran;
        Alcotest.(check string)
          (Printf.sprintf "seed %d, %d apps x %d ops: comp = scan" seed n_apps
             n_operators)
          expected (render comp))
      [ (2, 15); (3, 15); (2, 60); (3, 60) ]
  done;
  Alcotest.(check bool) "some mixed-rate DAGs solve" true (!ran > 0)

(* Object-Grouping, Object-Availability and their Comp-Greedy tail
   against the loops that re-sort every round (test/oracles.ml), on
   paper instances up to N=100 at alpha 0.9 and 1.7, where the grouping
   fallback sells processors and resurrects operators placed earlier
   (at 0.9 also operators placed before the tail started), and on
   mixed-rate CSE DAGs.  [sells] counts the cases where the oracle side
   sold, so the resurrection path is known to be exercised. *)
let static_order_pairs () =
  let heuristic key =
    match Insp.Solve.find key with
    | Some h -> h
    | None -> Alcotest.failf "%s heuristic missing" key
  in
  let oracle key placer =
    Insp.Solve.make ~name:(key ^ " (re-sort)") ~key ~randomized:false placer
  in
  [
    ( heuristic "objgroup",
      oracle "objgroup" Oracles.resort_object_grouping );
    ( heuristic "objavail",
      oracle "objavail" Oracles.resort_object_availability );
    ( Insp.Solve.make ~name:"place_rest" ~key:"rest" ~randomized:false
        (fun _ g platform -> Common.place_rest (Builder.create g platform)),
      oracle "rest" (fun _ g platform ->
          Oracles.resort_place_rest (Builder.create g platform)) );
  ]

let sold f =
  let outcome, recorder = Insp.Obs.with_sink f in
  ( outcome,
    Option.value ~default:0
      (Insp.Obs_metrics.counter recorder.Insp.Obs.metrics "heur.sell")
    > 0 )

let test_static_orders_vs_resort () =
  let pairs = static_order_pairs () in
  let sells = Array.make (List.length pairs) 0 in
  List.iter
    (fun (n, alpha) ->
      for seed = 1 to 12 do
        let inst =
          Insp.Instance.generate
            (Insp.Config.make ~alpha ~seed ~n_operators:n ())
        in
        List.iteri
          (fun k ((h : Insp.Solve.heuristic), oracle) ->
            let expected, sold_any =
              sold (fun () ->
                  Insp.Solve.run ~seed:1 oracle inst.Insp.Instance.app
                    inst.Insp.Instance.platform)
            in
            if sold_any then sells.(k) <- sells.(k) + 1;
            Alcotest.(check string)
              (Printf.sprintf "N=%d alpha %g seed %d: %s = re-sort oracle" n
                 alpha seed h.Insp.Solve.key)
              (render_outcome expected) (run_outcome h inst))
          pairs
      done)
    (List.concat_map
       (fun n -> [ (n, 0.9); (n, 1.7) ])
       [ 20; 40; 60; 80; 100 ]);
  Array.iteri
    (fun k count ->
      Alcotest.(check bool)
        (Printf.sprintf "pair %d sells on some instance" k)
        true (count > 0))
    sells

let test_static_orders_mixed_rates () =
  let pairs = static_order_pairs () in
  for seed = 0 to 7 do
    List.iter
      (fun (n_apps, n_operators) ->
        let apps, platform =
          Insp.Multi_workload.instance ~seed ~n_apps ~n_operators
        in
        let g = Insp.Dag.graph (Insp.Cse.share_apps (mixed_rates apps)) in
        List.iter
          (fun ((h : Insp.Solve.heuristic), oracle) ->
            let render h =
              render_outcome (Insp.Solve.run_graph ~seed:1 h g platform)
            in
            Alcotest.(check string)
              (Printf.sprintf "seed %d, %d apps x %d ops: %s = re-sort oracle"
                 seed n_apps n_operators h.Insp.Solve.key)
              (render oracle) (render h))
          pairs)
      [ (2, 15); (3, 15); (2, 60); (3, 60) ]
  done

(* Every heuristic's solution on every corpus instance, one line per
   (instance, heuristic), against test/solutions.golden: a refactor of
   any placement loop must leave the committed solutions unchanged. *)
let test_solutions_golden () =
  let buf = Buffer.create (64 * 1024) in
  for idx = 0 to Helpers.corpus_size - 1 do
    let inst = Helpers.corpus_instance idx in
    List.iter
      (fun (h : Insp.Solve.heuristic) ->
        Printf.bprintf buf "%d %s %s\n" idx h.Insp.Solve.key (run_outcome h inst))
      Insp.Solve.all
  done;
  Helpers.check_golden ~what:"Solve.run" "solutions.golden" (Buffer.contents buf)

(* The scale preset end to end at a mid size: the queue path must
   produce a checker-approved allocation (the bench rows assert the
   same at 10k/100k). *)
let test_scale_preset_solves () =
  let inst =
    match
      Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:2000 ())
    with
    | Ok t -> t
    | Error e -> Alcotest.fail (Insp.Instance.gen_error_message e)
  in
  match
    Insp.Solve.run ~seed:1
      (match Insp.Solve.find "comp" with
      | Some h -> h
      | None -> Alcotest.fail "comp heuristic missing")
      inst.Insp.Instance.app inst.Insp.Instance.platform
  with
  | Ok o ->
    Alcotest.(check int)
      "every operator assigned" 2000
      (Helpers.n_assigned o.Insp.Solve.alloc)
  | Error f -> Alcotest.fail (Insp.Solve.failure_message f)

(* Subtree-Bottom-Up on the 30k scale tree, where its consolidation
   folds thousands of groups: cost and processor count as the sweep
   that probes every pair left them. *)
let test_scale_sbu_30k () =
  let inst =
    match
      Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:30_000 ())
    with
    | Ok t -> t
    | Error e -> Alcotest.fail (Insp.Instance.gen_error_message e)
  in
  match
    Insp.Solve.run ~seed:1
      (Option.get (Insp.Solve.find "sbu"))
      inst.Insp.Instance.app inst.Insp.Instance.platform
  with
  | Ok o ->
    Alcotest.(check (float 0.0)) "cost" 17695437.0 o.Insp.Solve.cost;
    Alcotest.(check int) "processors" 1404 o.Insp.Solve.n_procs
  | Error f -> Alcotest.fail (Insp.Solve.failure_message f)

(* ------------------------------------------------------------------ *)
(* Arena id discipline                                                 *)

let test_arena_id_stability () =
  let a = Insp.Arena.create () in
  let ids = List.init 100 (fun _ -> Insp.Arena.alloc a) in
  Alcotest.(check (list int)) "ids are dense preorder" (List.init 100 Fun.id) ids;
  Alcotest.(check int) "every allocation live" 100
    (List.length (Insp.Arena.live_ids a));
  (* Kill every third id; the survivors keep their ids and order. *)
  List.iter (fun i -> if i mod 3 = 0 then Insp.Arena.free a i) ids;
  let expected_live = List.filter (fun i -> i mod 3 <> 0) ids in
  Alcotest.(check (list int))
    "live_ids ascending after frees" expected_live (Insp.Arena.live_ids a);
  (* Freed ids are never handed out again. *)
  let fresh = Insp.Arena.alloc a in
  Alcotest.(check int) "ids never reused" 100 fresh;
  Alcotest.(check bool) "old id stays dead" false (Insp.Arena.is_live a 0);
  (* Generation stamps: touch bumps, so any cached view dated before
     the touch is recognizably stale. *)
  let g0 = Insp.Arena.generation a fresh in
  Insp.Arena.touch a fresh;
  Alcotest.(check bool)
    "touch bumps the stamp" true
    (Insp.Arena.generation a fresh > g0)

(* ------------------------------------------------------------------ *)
(* Rank walker vs a naive linear scan                                  *)

(* Random permutations under random interleavings of [first] from
   position 0 (the round seed), [first] from arbitrary positions (the
   fill walk), deaths, and resurrections each followed by [reset]: every
   answer must equal the first alive position a linear scan finds. *)
let test_rank_walker_vs_scan () =
  let rng = Insp.Prng.create 17 in
  for trial = 0 to 199 do
    let n = 1 + Insp.Prng.int rng 40 in
    let order =
      Array.of_list (Insp.Prng.sample_without_replacement rng n n)
    in
    (* keys that rank [order] exactly *)
    let key = Array.make n 0.0 in
    Array.iteri (fun pos i -> key.(i) <- float_of_int (n - pos)) order;
    let rank = Rank.descending key in
    Array.iteri
      (fun pos i -> Alcotest.(check int) "element" i (Rank.element rank pos))
      order;
    let alive = Array.make n true in
    let naive pos =
      let p = ref pos in
      while !p < n && not alive.(order.(!p)) do incr p done;
      !p
    in
    let check_first step pos =
      Alcotest.(check int)
        (Printf.sprintf "trial %d step %d: first from %d" trial step pos)
        (naive pos)
        (Rank.first rank ~alive:(fun i -> alive.(i)) pos)
    in
    for step = 0 to 299 do
      match Insp.Prng.int rng 8 with
      | 0 | 1 -> check_first step 0
      | 2 | 3 -> check_first step (Insp.Prng.int rng (n + 1))
      | 4 | 5 | 6 -> alive.(Insp.Prng.int rng n) <- false
      | _ ->
        let i = Insp.Prng.int rng n in
        if not alive.(i) then begin
          alive.(i) <- true;
          Rank.reset rank
        end
    done
  done

(* The radix order against the comparator sort it replaces, on random
   keys drawn from a small pool so ties are common: zeros of both signs,
   subnormals, the extremes of the float range and ordinary loads. *)
let test_rank_descending_vs_sort () =
  let rng = Insp.Prng.create 23 in
  let pool =
    [| 0.0; -0.0; 5e-324; 1e-310; Float.min_float; 1e-300; 0.5; 1.0; 1.5;
       2.0; 3.0; 1e12; 1e300; Float.max_float; infinity |]
  in
  for trial = 0 to 299 do
    let n = Insp.Prng.int rng (if trial < 200 then 40 else 3000) in
    let key =
      Array.init n (fun _ ->
          if Insp.Prng.int rng 4 = 0 then 1e6 *. Insp.Prng.float rng
          else pool.(Insp.Prng.int rng (Array.length pool)))
    in
    let expected = Array.init n Fun.id in
    Array.stable_sort
      (fun a b ->
        let c = Float.compare key.(b) key.(a) in
        if c <> 0 then c else Int.compare a b)
      expected;
    let rank = Rank.descending key in
    Alcotest.(check (array int))
      (Printf.sprintf "trial %d (n=%d): radix = comparator sort" trial n)
      expected
      (Array.init n (Rank.element rank))
  done

(* ------------------------------------------------------------------ *)
(* Typed generator errors                                              *)

let test_generate_checked_rejects () =
  (match
     Insp.Instance.generate_checked
       { (Insp.Config.scale ~n_operators:1 ()) with Insp.Config.n_operators = 0 }
   with
  | Error (Insp.Instance.Operator_count_out_of_range { requested; limit }) ->
    Alcotest.(check int) "requested echoed" 0 requested;
    Alcotest.(check bool) "limit positive" true (limit > 0)
  | Error e ->
    Alcotest.failf "wrong error: %s" (Insp.Instance.gen_error_message e)
  | Ok _ -> Alcotest.fail "zero operators must be rejected");
  (* The default two copies per object type cannot fit one server. *)
  (match
     Insp.Instance.generate_checked
       (Insp.Config.make ~n_operators:20 ~n_servers:1 ())
   with
  | Error (Insp.Instance.Replication_out_of_range _ as e) ->
    Alcotest.(check string) "replication message"
      "replication range [1, 2] copies per object type does not fit 1 \
       server(s): it must lie within [1, n_servers]"
      (Insp.Instance.gen_error_message e)
  | Error e ->
    Alcotest.failf "wrong error: %s" (Insp.Instance.gen_error_message e)
  | Ok _ -> Alcotest.fail "two copies on one server must be rejected");
  (match
     Insp.Instance.generate_checked
       (Insp.Config.make ~n_operators:20 ~n_servers:1 ~max_copies:1 ())
   with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "one copy on one server rejected: %s"
      (Insp.Instance.gen_error_message e));
  (* Paper-sized objects on a very large tree concentrate the whole
     stream on the root: no catalog machine can host it, which the
     generator must report as a typed error instead of a guaranteed
     downstream heuristic failure. *)
  (match
     Insp.Instance.generate_checked
       (Insp.Config.make ~sizes:Insp.Config.Small ~seed:1 ~n_operators:4000 ())
   with
  | Error (Insp.Instance.Operator_exceeds_catalog { operator; work; _ } as e) ->
    Alcotest.(check bool) "operator in range" true (operator >= 0 && operator < 4000);
    Alcotest.(check bool) "work reported" true (work > 0.0);
    Alcotest.(check bool)
      "message names the operator" true
      (String.length (Insp.Instance.gen_error_message e) > 0)
  | Error e ->
    Alcotest.failf "wrong error: %s" (Insp.Instance.gen_error_message e)
  | Ok _ -> Alcotest.fail "4000 paper-sized operators must overflow the catalog");
  (* The scale preset hosts the same count comfortably. *)
  match
    Insp.Instance.generate_checked (Insp.Config.scale ~n_operators:4000 ())
  with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "scale preset rejected: %s" (Insp.Instance.gen_error_message e)

let () =
  Alcotest.run "scale"
    [
      ( "equivalence",
        [
          Alcotest.test_case "comp: queue = scan on 200 instances" `Slow
            test_comp_queue_equivalence;
          Alcotest.test_case "scale preset solves at 2k" `Quick
            test_scale_preset_solves;
          Alcotest.test_case "sbu at 30k: cost and processors" `Quick
            test_scale_sbu_30k;
          Alcotest.test_case "comp: queue = scan on mixed-rate DAGs" `Quick
            test_comp_scan_mixed_rates;
          Alcotest.test_case "static orders = re-sort oracles, with sells"
            `Slow test_static_orders_vs_resort;
          Alcotest.test_case "static orders = re-sort oracles on mixed-rate \
                              DAGs" `Quick test_static_orders_mixed_rates;
        ] );
      ( "golden",
        [
          Alcotest.test_case "solutions: 200 instances x 6 heuristics" `Slow
            test_solutions_golden;
        ] );
      ( "arena",
        [ Alcotest.test_case "id stability" `Quick test_arena_id_stability ] );
      ( "rank",
        [
          Alcotest.test_case "first = linear scan under deaths and resets"
            `Quick test_rank_walker_vs_scan;
          Alcotest.test_case "descending = comparator sort" `Quick
            test_rank_descending_vs_sort;
        ] );
      ( "workload",
        [
          Alcotest.test_case "generate_checked typed errors" `Quick
            test_generate_checked_rejects;
        ] );
    ]
