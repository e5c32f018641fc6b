(* Tests for the simulation substrate: max-min fair sharing and the
   discrete-event runtime, including cross-validation against the
   analytic constraint checker. *)

module Fair_share = Insp.Fair_share
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

(* Component tracking through a merge (bridge flow) and the split when
   the bridge is removed, with hand-computed water-filling rates. *)
let test_fsi_component_merge_split () =
  let t = FSI.create () in
  let c0 = FSI.add_constraint t 10.0 in
  let c1 = FSI.add_constraint t 6.0 in
  let c2 = FSI.add_constraint t 8.0 in
  let c3 = FSI.add_constraint t 20.0 in
  Alcotest.(check int) "dense indices" 3 c3;
  let f0 = FSI.add_flow t [| c0; c1 |] in
  let f1 = FSI.add_flow t [| c2; c3 |] in
  FSI.refresh t;
  Alcotest.(check (list (list int))) "two components"
    [ [ 0; 1 ]; [ 2; 3 ] ] (FSI.components t);
  check_bits "f0 capped by c1" 6.0 (FSI.rate t f0);
  check_bits "f1 capped by c2" 8.0 (FSI.rate t f1);
  (* Bridge flow across c1 and c2 merges the components.  Water-fill:
     c1 serves {f0, bridge} -> share 3 freezes both; c2's remaining
     8 - 3 = 5 then goes entirely to f1. *)
  let bridge = FSI.add_flow t [| c1; c2 |] in
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
  let g = FSI.add_flow t [| c3 |] in
  FSI.refresh t;
  Alcotest.(check (pair int int)) "only the dirty half: f1 and g" (1, 2)
    (recomputed before);
  check_bits "f1 capped by c2" 8.0 (FSI.rate t f1);
  check_bits "g takes c3's rest" 12.0 (FSI.rate t g);
  check_bits "f0 untouched" 6.0 (FSI.rate t f0)

let test_fsi_refresh_no_op () =
  let t = FSI.create () in
  let c = FSI.add_constraint t 4.0 in
  ignore (FSI.add_flow t [| c |]);
  FSI.refresh t;
  let before = (FSI.stats t).FSI.refreshes in
  FSI.refresh t;
  FSI.refresh t;
  Alcotest.(check int) "clean refresh is free" before
    (FSI.stats t).FSI.refreshes

let test_fsi_fid_reuse_lifo () =
  let t = FSI.create () in
  let c = FSI.add_constraint t 4.0 in
  let a = FSI.add_flow t [| c |] in
  let b = FSI.add_flow t [| c |] in
  FSI.remove_flow t a;
  FSI.remove_flow t b;
  Alcotest.(check int) "last freed first" b (FSI.add_flow t [| c |]);
  Alcotest.(check int) "then the older slot" a (FSI.add_flow t [| c |]);
  FSI.refresh t;
  Alcotest.(check (list int)) "ascending ids" [ a; b ] (FSI.active_flows t)

let fsi_gen =
  QCheck.make
    ~print:(fun (seed, nc, ns) ->
      Printf.sprintf "seed=%d caps=%d steps=%d" seed nc ns)
    QCheck.Gen.(triple (0 -- 10000) (1 -- 8) (1 -- 25))

(* The headline equivalence suite: replay an identical randomized
   add/remove/refresh history against both kernels and demand
   bit-identical rates after every refresh.  Removals split
   components; batches of 1-3 ops exercise merged dirty sets. *)
let fsi_matches_oracle =
  qtest ~count:500 "incremental kernel bit-identical to full oracle" fsi_gen
    (fun (seed, n_caps, n_steps) ->
      let rng = Insp.Prng.create seed in
      let inc = FSI.create ~kernel:`Incremental () in
      let full = FSI.create ~kernel:`Full () in
      for _ = 1 to n_caps do
        let cap = Insp.Prng.float_range rng 0.0 20.0 in
        ignore (FSI.add_constraint inc cap);
        ignore (FSI.add_constraint full cap)
      done;
      let ok = ref true in
      for _ = 1 to n_steps do
        let n_ops = Insp.Prng.int_range rng 1 3 in
        for _ = 1 to n_ops do
          let actives = FSI.active_flows inc in
          let n_active = List.length actives in
          if n_active > 0 && Insp.Prng.int_range rng 0 99 < 35 then begin
            let victim =
              List.nth actives (Insp.Prng.int_range rng 0 (n_active - 1))
            in
            FSI.remove_flow inc victim;
            FSI.remove_flow full victim
          end
          else begin
            let k = Insp.Prng.int_range rng 1 n_caps in
            let ms =
              Array.of_list (Insp.Prng.sample_without_replacement rng k n_caps)
            in
            if FSI.add_flow inc ms <> FSI.add_flow full ms then ok := false
          end
        done;
        FSI.refresh inc;
        FSI.refresh full;
        if FSI.active_flows inc <> FSI.active_flows full then ok := false
        else
          List.iter
            (fun fid ->
              if
                Int64.bits_of_float (FSI.rate inc fid)
                <> Int64.bits_of_float (FSI.rate full fid)
              then ok := false)
            (FSI.active_flows inc)
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

let check_reports_identical a b =
  Alcotest.(check int) "events" a.Runtime.events b.Runtime.events;
  Alcotest.(check int) "completions" a.Runtime.results_completed
    b.Runtime.results_completed;
  check_bits "sim_time" a.Runtime.sim_time b.Runtime.sim_time;
  check_bits "achieved" a.Runtime.achieved_throughput
    b.Runtime.achieved_throughput;
  check_bits "target" a.Runtime.target_throughput b.Runtime.target_throughput;
  check_bits "download" a.Runtime.download_delivered
    b.Runtime.download_delivered;
  Alcotest.(check int) "proc_busy length"
    (Array.length a.Runtime.proc_busy)
    (Array.length b.Runtime.proc_busy);
  Array.iteri
    (fun u busy ->
      check_bits (Printf.sprintf "proc_busy.(%d)" u) busy
        b.Runtime.proc_busy.(u))
    a.Runtime.proc_busy

let test_runtime_kernels_agree () =
  let inst = Helpers.instance ~n:15 ~seed:5 () in
  match
    Solve.run ~seed:5 sbu inst.Insp.Instance.app inst.Insp.Instance.platform
  with
  | Error f -> Alcotest.fail (Solve.failure_message f)
  | Ok o ->
    let run kernel =
      Runtime.run ~kernel inst.Insp.Instance.app inst.Insp.Instance.platform
        o.Solve.alloc
    in
    check_reports_identical (run `Full) (run `Incremental)

(* Same property across the whole randomized instance space, including
   overloaded mappings (capacity violations stress flow churn). *)
let runtime_kernels_agree_randomized =
  qtest ~count:15 "full and incremental kernels produce identical reports"
    Helpers.instance_case (fun case ->
      let inst = Helpers.instance_of_case case in
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      match Solve.run ~seed:3 sbu app platform with
      | Error _ -> true
      | Ok o ->
        let run kernel =
          Runtime.run ~horizon:60.0 ~kernel app platform o.Solve.alloc
        in
        let a = run `Full and b = run `Incremental in
        a.Runtime.events = b.Runtime.events
        && a.Runtime.results_completed = b.Runtime.results_completed
        && Int64.bits_of_float a.Runtime.achieved_throughput
           = Int64.bits_of_float b.Runtime.achieved_throughput
        && Int64.bits_of_float a.Runtime.download_delivered
           = Int64.bits_of_float b.Runtime.download_delivered
        && Array.for_all2
             (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
             a.Runtime.proc_busy b.Runtime.proc_busy)

(* Tree DES reports on a fixed corpus, one line per run, against
   test/des_reports.golden: the completed-result and event counts and
   the exact bits of throughput, delivered download volume and every
   processor's busy fraction.  The corpus spreads the paper grid (N x
   alpha x seeds, Comp-Greedy and SBU mappings) at a short horizon, plus
   disruption runs that drive [set_capacity] on every scope kind.  A
   refactor of the simulator must leave the committed reports
   unchanged. *)
let des_report_line buf label (r : Runtime.report) =
  Printf.bprintf buf "%s completed=%d events=%d thr=%h dl=%h busy=%s\n" label
    r.Runtime.results_completed r.Runtime.events r.Runtime.achieved_throughput
    r.Runtime.download_delivered
    (String.concat ","
       (Array.to_list (Array.map (Printf.sprintf "%h") r.Runtime.proc_busy)))

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
                    des_report_line buf label
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
            des_report_line buf
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
          fsi_matches_oracle;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "tiny feasible sustains" `Quick
            test_runtime_tiny_feasible;
          Alcotest.test_case "deterministic" `Quick test_runtime_deterministic;
          Alcotest.test_case "kernels agree" `Quick test_runtime_kernels_agree;
          Alcotest.test_case "detects overload" `Quick
            test_runtime_detects_compute_overload;
          Alcotest.test_case "rejects partial alloc" `Quick
            test_runtime_rejects_partial_alloc;
          runtime_kernels_agree_randomized;
          feasible_mappings_sustain_rho;
          Alcotest.test_case "reports golden" `Slow test_des_reports_golden;
        ] );
    ]
