(* Tests for the simulation substrate: max-min fair sharing and the
   discrete-event runtime, including cross-validation against the
   analytic constraint checker. *)

module FSI = Insp.Fair_share_inc
module Runtime = Insp.Runtime
module Solve = Insp.Solve
module Alloc = Insp.Alloc
module Check = Insp.Check
module Catalog = Insp.Catalog

let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Fair share                                                          *)

let test_single_flow_min_cap () =
  let rates =
    Fair_share.compute ~caps:[| 10.0; 4.0; 7.0 |]
      ~membership:[| [ 0; 1; 2 ] |]
  in
  Helpers.alco_float "min of caps" 4.0 rates.(0)

let test_equal_split () =
  let rates =
    Fair_share.compute ~caps:[| 9.0 |] ~membership:[| [ 0 ]; [ 0 ]; [ 0 ] |]
  in
  Array.iter (fun r -> Helpers.alco_float "third" 3.0 r) rates

let test_progressive_filling () =
  (* Two flows share link 0 (cap 10); flow 1 also crosses link 1 (cap
     3).  Max-min: flow1 = 3, flow0 = 7. *)
  let rates =
    Fair_share.compute ~caps:[| 10.0; 3.0 |]
      ~membership:[| [ 0 ]; [ 0; 1 ] |]
  in
  Helpers.alco_float "constrained flow" 3.0 rates.(1);
  Helpers.alco_float "unconstrained takes rest" 7.0 rates.(0)

let test_fair_share_zero_cap () =
  let rates =
    Fair_share.compute ~caps:[| 0.0 |] ~membership:[| [ 0 ]; [ 0 ] |]
  in
  Array.iter (fun r -> Helpers.alco_float "starved" 0.0 r) rates

(* Hand-computed golden topologies: the water-filling worked out on
   paper, then pinned exactly. *)

let test_golden_shared_nic () =
  (* Three flows leave one shared NIC (cap 30 MB/s); each also crosses
     its own ample link (cap 100).  The NIC is the only bottleneck:
     30 / 3 = 10 each. *)
  let caps = [| 30.0; 100.0; 100.0; 100.0 |] in
  let membership = [| [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ] |] in
  let rates = Fair_share.compute ~caps ~membership in
  Array.iter (fun r -> Helpers.alco_float "equal thirds" 10.0 r) rates;
  Alcotest.(check bool) "max-min" true
    (Fair_share.is_max_min ~caps ~membership ~rates)

let test_golden_asymmetric_links () =
  (* Same shared NIC (cap 30), but flow 0 also crosses a 5 MB/s link.
     First fill freezes flow 0 at 5; the NIC's remaining 25 splits
     between flows 1 and 2: 12.5 each. *)
  let caps = [| 30.0; 5.0 |] in
  let membership = [| [ 0; 1 ]; [ 0 ]; [ 0 ] |] in
  let rates = Fair_share.compute ~caps ~membership in
  Helpers.alco_float "capped by own link" 5.0 rates.(0);
  Helpers.alco_float "splits the rest (flow 1)" 12.5 rates.(1);
  Helpers.alco_float "splits the rest (flow 2)" 12.5 rates.(2);
  Alcotest.(check bool) "max-min" true
    (Fair_share.is_max_min ~caps ~membership ~rates)

let fair_share_gen =
  QCheck.make
    ~print:(fun (seed, nf, nc) -> Printf.sprintf "seed=%d f=%d c=%d" seed nf nc)
    QCheck.Gen.(triple (0 -- 5000) (1 -- 12) (1 -- 6))

let fair_share_is_max_min =
  qtest ~count:300 "progressive filling yields max-min fairness"
    fair_share_gen (fun (seed, n_flows, n_caps) ->
      let rng = Insp.Prng.create seed in
      let caps =
        Array.init n_caps (fun _ -> Insp.Prng.float_range rng 1.0 20.0)
      in
      let membership =
        Array.init n_flows (fun _ ->
            let k = Insp.Prng.int_range rng 1 n_caps in
            Insp.Prng.sample_without_replacement rng k n_caps)
      in
      let rates = Fair_share.compute ~caps ~membership in
      Fair_share.is_max_min ~caps ~membership ~rates)

(* Regression coverage for the clamp in [Fair_share.compute]: when a
   frozen flow spans several constraints that saturate at (almost) the
   same share, float rounding used to drive [remaining] slightly
   negative, which later surfaced as a negative rate for an unrelated
   flow.  Caps are engineered so every constraint saturates at the same
   per-flow share, perturbed in the last few bits. *)
let fair_share_clamp_near_saturated =
  qtest ~count:200 "max-min holds on near-saturated overlapping constraints"
    fair_share_gen (fun (seed, n_flows, n_caps) ->
      let rng = Insp.Prng.create seed in
      let membership =
        Array.init n_flows (fun _ ->
            let k = Insp.Prng.int_range rng 1 n_caps in
            Insp.Prng.sample_without_replacement rng k n_caps)
      in
      let crossing = Array.make n_caps 0 in
      Array.iter
        (List.iter (fun c -> crossing.(c) <- crossing.(c) + 1))
        membership;
      let share = Insp.Prng.float_range rng 0.1 10.0 in
      let caps =
        Array.init n_caps (fun c ->
            let jitter =
              1.0 +. (1e-15 *. float_of_int (Insp.Prng.int_range rng (-4) 4))
            in
            share *. float_of_int (max 1 crossing.(c)) *. jitter)
      in
      let rates = Fair_share.compute ~caps ~membership in
      Array.for_all (fun r -> r >= 0.0) rates
      && Fair_share.is_max_min ~caps ~membership ~rates)

let fair_share_conserves =
  qtest ~count:300 "no constraint oversubscribed" fair_share_gen
    (fun (seed, n_flows, n_caps) ->
      let rng = Insp.Prng.create seed in
      let caps =
        Array.init n_caps (fun _ -> Insp.Prng.float_range rng 1.0 20.0)
      in
      let membership =
        Array.init n_flows (fun _ ->
            let k = Insp.Prng.int_range rng 1 n_caps in
            Insp.Prng.sample_without_replacement rng k n_caps)
      in
      let rates = Fair_share.compute ~caps ~membership in
      let load = Array.make n_caps 0.0 in
      Array.iteri
        (fun f ms -> List.iter (fun c -> load.(c) <- load.(c) +. rates.(f)) ms)
        membership;
      Array.for_all2 (fun l c -> l <= c +. 1e-6) load caps)

(* ------------------------------------------------------------------ *)
(* Incremental fair-share kernel                                       *)

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A flow on a route of its own. *)
let flow t ms = FSI.add_flow t (FSI.add_route t ms)

(* Component tracking through a merge (bridge flow) and the split when
   the bridge is removed, with hand-computed water-filling rates. *)
let test_fsi_component_merge_split () =
  let t = FSI.create () in
  let c0 = FSI.add_constraint t 10.0 in
  let c1 = FSI.add_constraint t 6.0 in
  let c2 = FSI.add_constraint t 8.0 in
  let c3 = FSI.add_constraint t 20.0 in
  Alcotest.(check int) "dense indices" 3 c3;
  let f0 = flow t [| c0; c1 |] in
  let f1 = flow t [| c2; c3 |] in
  FSI.refresh t;
  Alcotest.(check (list (list int))) "two components"
    [ [ 0; 1 ]; [ 2; 3 ] ] (FSI.components t);
  check_bits "f0 capped by c1" 6.0 (FSI.rate t f0);
  check_bits "f1 capped by c2" 8.0 (FSI.rate t f1);
  (* Bridge flow across c1 and c2 merges the components.  Water-fill:
     c1 serves {f0, bridge} -> share 3 freezes both; c2's remaining
     8 - 3 = 5 then goes entirely to f1. *)
  let bridge = flow t [| c1; c2 |] in
  FSI.refresh t;
  Alcotest.(check (list (list int))) "merged"
    [ [ 0; 1; 2; 3 ] ] (FSI.components t);
  check_bits "f0 squeezed" 3.0 (FSI.rate t f0);
  check_bits "bridge" 3.0 (FSI.rate t bridge);
  check_bits "f1 gets the rest" 5.0 (FSI.rate t f1);
  (* Removing the bridge splits the component again and restores the
     original rates.  Components are exact, so the refresh fills the
     two halves separately and a later change on one half re-fills that
     half alone. *)
  let recomputed before =
    let s = FSI.stats t in
    ( s.FSI.components_recomputed - before.FSI.components_recomputed,
      s.FSI.flows_recomputed - before.FSI.flows_recomputed )
  in
  let before = FSI.stats t in
  FSI.remove_flow t bridge;
  FSI.refresh t;
  Alcotest.(check (list (list int))) "split back"
    [ [ 0; 1 ]; [ 2; 3 ] ] (FSI.components t);
  check_bits "f0 restored" 6.0 (FSI.rate t f0);
  check_bits "f1 restored" 8.0 (FSI.rate t f1);
  Alcotest.(check (pair int int)) "split: two components, one flow each"
    (2, 2) (recomputed before);
  let before = FSI.stats t in
  let g = flow t [| c3 |] in
  FSI.refresh t;
  Alcotest.(check (pair int int)) "only the dirty half: f1 and g" (1, 2)
    (recomputed before);
  check_bits "f1 capped by c2" 8.0 (FSI.rate t f1);
  check_bits "g takes c3's rest" 12.0 (FSI.rate t g);
  check_bits "f0 untouched" 6.0 (FSI.rate t f0)

(* Several flows on one route: the route fills as one class that
   subtracts its share once per flow.  Route [a] = {c0, c2} carries
   three flows, route [b] = {c0, c1} one.  Water-fill: c1 (share 1)
   freezes b; c0 keeps 12 - 1 = 11 for a's three flows, under c2's
   30 / 3. *)
let test_fsi_shared_route () =
  let t = FSI.create () in
  let c0 = FSI.add_constraint t 12.0 in
  let c1 = FSI.add_constraint t 1.0 in
  let c2 = FSI.add_constraint t 30.0 in
  let a = FSI.add_route t [| c0; c2 |] in
  let b = FSI.add_route t [| c0; c1 |] in
  let a1 = FSI.add_flow t a in
  let a2 = FSI.add_flow t a in
  let a3 = FSI.add_flow t a in
  let b1 = FSI.add_flow t b in
  let before = FSI.stats t in
  FSI.refresh t;
  let s = FSI.stats t in
  Alcotest.(check (list int)) "routes, flows, rounds recomputed" [ 2; 4; 2 ]
    [
      s.FSI.routes_recomputed - before.FSI.routes_recomputed;
      s.FSI.flows_recomputed - before.FSI.flows_recomputed;
      s.FSI.rounds - before.FSI.rounds;
    ];
  check_bits "b capped by c1" 1.0 (FSI.rate t b1);
  List.iter
    (fun f -> check_bits "a splits c0's rest" (11.0 /. 3.0) (FSI.rate t f))
    [ a1; a2; a3 ];
  Alcotest.(check int) "one route for a's flows" a (FSI.route_view t).(a2);
  check_bits "views agree" (FSI.rate t a2)
    (FSI.rates_view t).((FSI.route_view t).(a2));
  FSI.remove_flow t a1;
  FSI.refresh t;
  check_bits "two left on a" 5.5 (FSI.rate t a2);
  FSI.remove_flow t a3;
  FSI.refresh t;
  check_bits "one left on a" 11.0 (FSI.rate t a2);
  check_bits "b unchanged" 1.0 (FSI.rate t b1);
  (* A flow joining a live route reads the route's rate until the next
     refresh; one joining a dead route reads 0. *)
  let a4 = FSI.add_flow t a in
  check_bits "joins live a" 11.0 (FSI.rate t a4);
  FSI.refresh t;
  check_bits "a4 shares c0's rest" 5.5 (FSI.rate t a4);
  FSI.remove_flow t a2;
  FSI.remove_flow t a4;
  FSI.refresh t;
  let a5 = FSI.add_flow t a in
  check_bits "joins dead a" 0.0 (FSI.rate t a5);
  FSI.refresh t;
  check_bits "a back to count 1" 11.0 (FSI.rate t a5)

(* A route of three flows subtracts its share three times, as the
   per-flow oracle does: with s = 0.3 / 3, 1 - s - s - s rounds to
   0.7000000000000001 where 1 - 3s gives 0.7.  Route a = {c0, c1}
   freezes first at c1's share; b = {c0} then gets c0's rest. *)
let test_fsi_route_subtracts_per_flow () =
  let t = FSI.create () in
  let c0 = FSI.add_constraint t 1.0 in
  let c1 = FSI.add_constraint t 0.3 in
  let a = FSI.add_route t [| c0; c1 |] in
  let b = FSI.add_route t [| c0 |] in
  let fa = List.init 3 (fun _ -> FSI.add_flow t a) in
  let fb = FSI.add_flow t b in
  FSI.refresh t;
  let s = 0.3 /. 3.0 in
  List.iter (fun f -> check_bits "a at c1's share" s (FSI.rate t f)) fa;
  check_bits "b gets c0's rest" (1.0 -. s -. s -. s) (FSI.rate t fb)

let test_fsi_add_route_rejects () =
  let t = FSI.create () in
  let c0 = FSI.add_constraint t 1.0 in
  let c1 = FSI.add_constraint t 2.0 in
  let raises name ms =
    match FSI.add_route t ms with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  raises "empty route" [||];
  raises "unknown cid" [| c0; 2 |];
  raises "negative cid" [| -1 |];
  raises "repeated cid" [| c0; c1; c0 |];
  Alcotest.(check int) "rejects register nothing" 0 (FSI.add_route t [| c1 |]);
  match FSI.add_flow t 1 with
  | _ -> Alcotest.fail "unknown route: accepted"
  | exception Invalid_argument _ -> ()

let test_fsi_refresh_no_op () =
  let t = FSI.create () in
  let c = FSI.add_constraint t 4.0 in
  ignore (flow t [| c |]);
  FSI.refresh t;
  let before = (FSI.stats t).FSI.refreshes in
  FSI.refresh t;
  FSI.refresh t;
  Alcotest.(check int) "clean refresh is free" before
    (FSI.stats t).FSI.refreshes

let test_fsi_fid_reuse_lifo () =
  let t = FSI.create () in
  let c = FSI.add_constraint t 4.0 in
  let r = FSI.add_route t [| c |] in
  let a = FSI.add_flow t r in
  let b = FSI.add_flow t r in
  FSI.remove_flow t a;
  FSI.remove_flow t b;
  Alcotest.(check int) "last freed first" b (FSI.add_flow t r);
  Alcotest.(check int) "then the older slot" a (FSI.add_flow t r);
  FSI.refresh t;
  Alcotest.(check (list int)) "ascending ids" [ a; b ] (FSI.active_flows t)

let fsi_gen =
  QCheck.make
    ~print:(fun (seed, nc, ns) ->
      Printf.sprintf "seed=%d caps=%d steps=%d" seed nc ns)
    QCheck.Gen.(triple (0 -- 10000) (1 -- 8) (1 -- 25))

(* The headline equivalence suite: drive the kernel through a
   randomized add/remove/set_capacity/refresh history while the test
   keeps its own model of every capacity and active flow's route, and
   demand after every refresh that each active flow's rate equal, bit
   for bit, the from-scratch per-flow oracle's.  Flows draw from a
   small per-case pool of routes whose last entry repeats the first
   one's constraint set under its own id, so routes carry several
   flows, go 1 -> 0 -> 1, and freed fids come back on other routes.
   Removals split components, capacity changes dirty a component
   without any flow churn, and batches of 1-3 steps exercise merged
   dirty sets. *)
let fsi_matches_oracle =
  qtest ~count:500 "incremental kernel bit-identical to full oracle" fsi_gen
    (fun (seed, n_caps, n_steps) ->
      let rng = Insp.Prng.create seed in
      let t = FSI.create () in
      let caps =
        Array.init n_caps (fun _ -> Insp.Prng.float_range rng 0.0 20.0)
      in
      Array.iter (fun cap -> ignore (FSI.add_constraint t cap)) caps;
      let draw_route () =
        let k = Insp.Prng.int_range rng 1 n_caps in
        Array.of_list (Insp.Prng.sample_without_replacement rng k n_caps)
      in
      let pool =
        Array.init (Insp.Prng.int_range rng 1 4) (fun _ -> draw_route ())
      in
      let twin = Array.of_list (List.rev (Array.to_list pool.(0))) in
      let pool = Array.append pool [| twin |] in
      let rids = Array.map (FSI.add_route t) pool in
      (* route.(fid) is the active flow's pool index, -1 for a free id;
         ids never exceed the number of adds. *)
      let route = Array.make ((3 * n_steps) + 1) (-1) in
      let active () =
        List.filter
          (fun fid -> route.(fid) >= 0)
          (List.init (Array.length route) Fun.id)
      in
      let ok = ref true in
      for _ = 1 to n_steps do
        let n_ops = Insp.Prng.int_range rng 1 3 in
        for _ = 1 to n_ops do
          let actives = active () in
          let n_active = List.length actives in
          let roll = Insp.Prng.int_range rng 0 99 in
          if roll < 15 then begin
            let c = Insp.Prng.int_range rng 0 (n_caps - 1) in
            let cap = Insp.Prng.float_range rng 0.0 20.0 in
            caps.(c) <- cap;
            FSI.set_capacity t c cap
          end
          else if n_active > 0 && roll < 50 then begin
            let victim =
              List.nth actives (Insp.Prng.int_range rng 0 (n_active - 1))
            in
            FSI.remove_flow t victim;
            route.(victim) <- -1
          end
          else begin
            let i = Insp.Prng.int_range rng 0 (Array.length pool - 1) in
            let fid = FSI.add_flow t rids.(i) in
            if route.(fid) >= 0 then ok := false;
            route.(fid) <- i
          end
        done;
        FSI.refresh t;
        let fids = active () in
        if FSI.active_flows t <> fids then ok := false
        else if fids <> [] then begin
          let membership =
            Array.of_list
              (List.map (fun fid -> Array.to_list pool.(route.(fid))) fids)
          in
          let expected = Fair_share.compute ~caps:(Array.copy caps) ~membership in
          List.iteri
            (fun i fid ->
              if
                Int64.bits_of_float (FSI.rate t fid)
                <> Int64.bits_of_float expected.(i)
              then ok := false)
            fids
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)

let sbu = List.find (fun h -> h.Solve.key = "sbu") Solve.all

let test_runtime_tiny_feasible () =
  let app = Helpers.tiny_app () in
  let platform = Helpers.tiny_platform () in
  match Solve.run ~seed:1 sbu app platform with
  | Error f -> Alcotest.fail (Solve.failure_message f)
  | Ok o ->
    let r = Runtime.run app platform o.Solve.alloc in
    Alcotest.(check bool) "sustains rho" true (Runtime.sustains_target r);
    Alcotest.(check bool) "made results" true (r.Runtime.results_completed > 0);
    Alcotest.(check bool) "downloads delivered" true
      (r.Runtime.download_delivered >= 0.95 *. r.Runtime.download_ideal)

let test_runtime_deterministic () =
  let inst = Helpers.instance ~n:15 ~seed:5 () in
  match Solve.run ~seed:5 sbu inst.Insp.Instance.app inst.Insp.Instance.platform with
  | Error f -> Alcotest.fail (Solve.failure_message f)
  | Ok o ->
    let run () =
      Runtime.run inst.Insp.Instance.app inst.Insp.Instance.platform
        o.Solve.alloc
    in
    let a = run () and b = run () in
    Alcotest.(check int) "same events" a.Runtime.events b.Runtime.events;
    Helpers.alco_float "same throughput" a.Runtime.achieved_throughput
      b.Runtime.achieved_throughput

let test_runtime_detects_compute_overload () =
  (* Downgrade every processor to the cheapest model: compute and NIC
     overload must show up as lost throughput. *)
  let inst = Helpers.instance ~n:25 ~alpha:1.2 ~seed:9 () in
  let app = inst.Insp.Instance.app in
  let platform = inst.Insp.Instance.platform in
  match Solve.run ~seed:9 sbu app platform with
  | Error f -> Alcotest.fail (Solve.failure_message f)
  | Ok o ->
    let broken = ref o.Solve.alloc in
    for u = 0 to Alloc.n_procs o.Solve.alloc - 1 do
      broken := Alloc.with_config !broken u (Catalog.cheapest Catalog.dell_2008)
    done;
    Alcotest.(check bool) "checker rejects" true
      (Check.check app platform !broken <> []);
    let r = Runtime.run app platform !broken in
    Alcotest.(check bool) "throughput collapses" true
      (r.Runtime.achieved_throughput < 0.9 *. r.Runtime.target_throughput)

let test_runtime_rejects_partial_alloc () =
  let app = Helpers.tiny_app () in
  let platform = Helpers.tiny_platform () in
  let partial =
    Alloc.make
      [|
        {
          Alloc.config = Catalog.best Catalog.dell_2008;
          operators = [ 0; 1 ];
          downloads = [ (0, 0); (1, 0) ];
        };
      |]
  in
  Alcotest.check_raises "unassigned rejected"
    (Invalid_argument "Runtime.run: unassigned operator") (fun () ->
      ignore (Runtime.run app platform partial))

(* Tree DES reports on a fixed corpus, one line per run, against
   test/des_reports.golden: the completed-result and event counts and
   the exact bits of throughput, delivered download volume and every
   processor's busy fraction.  The corpus spreads the paper grid (N x
   alpha x seeds, Comp-Greedy and SBU mappings) at a short horizon, plus
   disruption runs that drive [set_capacity] on every scope kind.  A
   refactor of the simulator must leave the committed reports
   unchanged. *)
let test_des_reports_golden () =
  let buf = Buffer.create (16 * 1024) in
  let solve key seed inst =
    Solve.run ~seed
      (Option.get (Solve.find key))
      inst.Insp.Instance.app inst.Insp.Instance.platform
  in
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          List.iter
            (fun seed ->
              let inst = Helpers.instance ~n ~alpha ~seed () in
              List.iter
                (fun key ->
                  let label = Printf.sprintf "%d %g %d %s" n alpha seed key in
                  match solve key seed inst with
                  | Error f ->
                    Printf.bprintf buf "%s fail %s\n" label
                      (Solve.failure_message f)
                  | Ok o ->
                    Helpers.des_report_line buf label
                      (Runtime.run ~horizon:16.0 inst.Insp.Instance.app
                         inst.Insp.Instance.platform o.Solve.alloc))
                [ "comp"; "sbu" ])
            [ 1; 2 ])
        [ 0.9; 1.5; 1.7 ])
    [ 20; 40; 60; 100 ];
  List.iter
    (fun seed ->
      let inst = Helpers.instance ~n:60 ~alpha:0.9 ~seed () in
      match solve "comp" seed inst with
      | Error f ->
        Printf.bprintf buf "disrupt %d fail %s\n" seed (Solve.failure_message f)
      | Ok o ->
        let u0, _, l0 = List.hd (Alloc.all_downloads o.Solve.alloc) in
        let d scope from until factor =
          {
            Runtime.d_scope = scope;
            d_from = from;
            d_until = until;
            d_factor = factor;
          }
        in
        let card = d (Runtime.Proc_card 0) 4.0 10.0 0.5 in
        let outage = d (Runtime.Server_card l0) 5.0 8.0 0.0 in
        let link = d (Runtime.Proc_link (0, 1)) 3.0 12.0 0.2 in
        let slink = d (Runtime.Server_link (l0, u0)) 6.0 14.0 0.5 in
        List.iter
          (fun (name, disruptions) ->
            Helpers.des_report_line buf
              (Printf.sprintf "disrupt %d %s" seed name)
              (Runtime.run ~horizon:16.0 ~disruptions inst.Insp.Instance.app
                 inst.Insp.Instance.platform o.Solve.alloc))
          [
            ("card", [ card ]);
            ("outage", [ outage ]);
            ("link", [ link ]);
            ("all", [ card; outage; link; slink ]);
          ])
    [ 1; 2; 3 ];
  Helpers.check_golden ~what:"Runtime.run" "des_reports.golden"
    (Buffer.contents buf)

(* The headline cross-validation: checker-feasible => simulator
   sustains the target throughput. *)
let feasible_mappings_sustain_rho =
  qtest ~count:20 "checker-feasible mappings sustain rho in simulation"
    Helpers.instance_case (fun case ->
      let inst = Helpers.instance_of_case case in
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      match Solve.run ~seed:2 sbu app platform with
      | Error _ -> true
      | Ok o ->
        let r = Runtime.run ~horizon:240.0 app platform o.Solve.alloc in
        Runtime.sustains_target r)

let () =
  Alcotest.run "sim"
    [
      ( "fair_share",
        [
          Alcotest.test_case "single flow" `Quick test_single_flow_min_cap;
          Alcotest.test_case "equal split" `Quick test_equal_split;
          Alcotest.test_case "progressive filling" `Quick
            test_progressive_filling;
          Alcotest.test_case "zero cap" `Quick test_fair_share_zero_cap;
          Alcotest.test_case "golden: shared NIC" `Quick
            test_golden_shared_nic;
          Alcotest.test_case "golden: asymmetric links" `Quick
            test_golden_asymmetric_links;
          fair_share_is_max_min;
          fair_share_clamp_near_saturated;
          fair_share_conserves;
        ] );
      ( "fair_share_inc",
        [
          Alcotest.test_case "component merge and split" `Quick
            test_fsi_component_merge_split;
          Alcotest.test_case "clean refresh is a no-op" `Quick
            test_fsi_refresh_no_op;
          Alcotest.test_case "fid reuse is LIFO" `Quick test_fsi_fid_reuse_lifo;
          Alcotest.test_case "flows share a route" `Quick test_fsi_shared_route;
          Alcotest.test_case "route subtracts once per flow" `Quick
            test_fsi_route_subtracts_per_flow;
          Alcotest.test_case "add_route rejects bad routes" `Quick
            test_fsi_add_route_rejects;
          fsi_matches_oracle;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "tiny feasible sustains" `Quick
            test_runtime_tiny_feasible;
          Alcotest.test_case "deterministic" `Quick test_runtime_deterministic;
          Alcotest.test_case "detects overload" `Quick
            test_runtime_detects_compute_overload;
          Alcotest.test_case "rejects partial alloc" `Quick
            test_runtime_rejects_partial_alloc;
          feasible_mappings_sustain_rho;
          Alcotest.test_case "reports golden" `Slow test_des_reports_golden;
        ] );
    ]
