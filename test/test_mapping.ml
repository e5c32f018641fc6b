(* Tests for the mapping layer: allocations, demand arithmetic, the
   constraint checker (paper Eqs. (1)-(5)) and cost accounting. *)

module Alloc = Insp.Alloc
module Demand = Insp.Demand
module Check = Insp.Check
module Cost = Insp.Cost
module Catalog = Insp.Catalog
module Platform = Insp.Platform
module App = Insp.App

let qtest = Helpers.qtest

let cfg = Helpers.cfg

(* One-processor allocation of the tiny app: everything on a best
   processor, objects from S0 (o0, o1) and S1 (o2). *)
let tiny_alloc_one () =
  Alloc.make
    [|
      {
        Alloc.config = cfg ();
        operators = [ 0; 1; 2; 3 ];
        downloads = [ (0, 0); (1, 0); (2, 1) ];
      };
    |]

(* Two processors: {n0, n1} and {n2, n3}. *)
let tiny_alloc_two () =
  Alloc.make
    [|
      {
        Alloc.config = cfg ();
        operators = [ 0; 1 ];
        downloads = [ (0, 0); (1, 0) ];
      };
      {
        Alloc.config = cfg ();
        operators = [ 2; 3 ];
        downloads = [ (0, 1); (2, 1) ];
      };
    |]

(* ------------------------------------------------------------------ *)
(* Alloc                                                               *)

let test_alloc_accessors () =
  let a = tiny_alloc_two () in
  Alcotest.(check int) "procs" 2 (Alloc.n_procs a);
  Alcotest.(check (option int)) "n0 on P0" (Some 0) (Alloc.assignment a 0);
  Alcotest.(check (option int)) "n3 on P1" (Some 1) (Alloc.assignment a 3);
  Alcotest.(check (option int)) "unknown" None (Alloc.assignment a 9);
  Alcotest.(check (list int)) "ops of P1" [ 2; 3 ] (Alloc.operators_of a 1);
  Alcotest.(check int) "assigned" 4 (Helpers.n_assigned a);
  Alcotest.(check (list (triple int int int))) "all downloads"
    [ (0, 0, 0); (0, 1, 0); (1, 0, 1); (1, 2, 1) ]
    (Alloc.all_downloads a)

let test_alloc_validation () =
  Alcotest.check_raises "duplicate operator"
    (Invalid_argument "Alloc.make: operator assigned to two processors")
    (fun () ->
      ignore
        (Alloc.make
           [|
             { Alloc.config = cfg (); operators = [ 0 ]; downloads = [] };
             { Alloc.config = cfg (); operators = [ 0 ]; downloads = [] };
           |]));
  (* Exact duplicate (object, server) entries are collapsed... *)
  let a =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0 ];
          downloads = [ (0, 0); (0, 0) ];
        };
      |]
  in
  Alcotest.(check (list (pair int int))) "exact duplicates collapsed"
    [ (0, 0) ] (Alloc.downloads_of a 0);
  (* ... while the same object from two servers is representable (the
     checker flags it as Duplicate_download). *)
  let a =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0 ];
          downloads = [ (0, 0); (0, 1) ];
        };
      |]
  in
  Alcotest.(check (list (pair int int))) "multi-server plan kept"
    [ (0, 0); (0, 1) ] (Alloc.downloads_of a 0)

let test_alloc_updates () =
  let a = tiny_alloc_two () in
  let a' = Alloc.with_config a 1 (cfg ~cpu:0 ~nic:0 ()) in
  Helpers.alco_float "new speed" 11720.0
    (Alloc.proc a' 1).Alloc.config.Catalog.cpu.Catalog.speed;
  Helpers.alco_float "P0 unchanged" 46880.0
    (Alloc.proc a' 0).Alloc.config.Catalog.cpu.Catalog.speed;
  let a'' = Alloc.with_configs a [| cfg ~cpu:0 ~nic:0 (); cfg ~cpu:1 () |] in
  Helpers.alco_float "P0 replaced" 11720.0
    (Alloc.proc a'' 0).Alloc.config.Catalog.cpu.Catalog.speed;
  Alcotest.(check (list (pair int int))) "downloads kept"
    (Alloc.downloads_of a 0) (Alloc.downloads_of a'' 0)

(* ------------------------------------------------------------------ *)
(* Demand                                                              *)

let test_demand_single_group () =
  let app = Helpers.tiny_app () in
  let d = Demand.of_group (Insp.Graph.of_app app) [ 0; 1; 2; 3 ] in
  (* compute = rho * (80+30+50+10) = 170 *)
  Helpers.alco_float "compute" 170.0 d.Demand.compute;
  (* downloads: distinct objects {0,1,2} -> 5 + 10 + 20 *)
  Helpers.alco_float "download (dedup)" 35.0 d.Demand.download;
  Helpers.alco_float "no comm in" 0.0 d.Demand.comm_in;
  Helpers.alco_float "no comm out" 0.0 d.Demand.comm_out;
  Helpers.alco_float "nic" 35.0 (Demand.nic d)

let test_demand_split_group () =
  let app = Helpers.tiny_app () in
  (* Group {n0, n1}: receives n2's output (50); n1 downloads o0+o1. *)
  let d = Demand.of_group (Insp.Graph.of_app app) [ 0; 1 ] in
  Helpers.alco_float "compute" 110.0 d.Demand.compute;
  Helpers.alco_float "download" 15.0 d.Demand.download;
  Helpers.alco_float "comm in" 50.0 d.Demand.comm_in;
  Helpers.alco_float "comm out" 0.0 d.Demand.comm_out;
  (* Group {n2, n3}: sends n2's output up; downloads o0 (shared) + o2. *)
  let d = Demand.of_group (Insp.Graph.of_app app) [ 2; 3 ] in
  Helpers.alco_float "compute lower" 60.0 d.Demand.compute;
  Helpers.alco_float "download dedup o0" 25.0 d.Demand.download;
  Helpers.alco_float "comm out up" 50.0 d.Demand.comm_out;
  Helpers.alco_float "comm in none" 0.0 d.Demand.comm_in

let test_demand_duplicates_ignored () =
  let app = Helpers.tiny_app () in
  Alcotest.(check bool) "dup ids ignored" true
    (Demand.of_group (Insp.Graph.of_app app) [ 1; 1; 1 ] = Demand.of_group (Insp.Graph.of_app app) [ 1 ])

let test_demand_fits () =
  let app = Helpers.tiny_app () in
  let d = Demand.of_group (Insp.Graph.of_app app) [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "fits best" true (Demand.fits (cfg ()) d);
  (* compute 170 > nothing; nic 35 MB/s needs the 125 tier. *)
  Alcotest.(check bool) "fits cheapest" true (Demand.fits (cfg ~cpu:0 ~nic:0 ()) d)

let demand_decomposes =
  qtest "group demand bounded by singleton sums" Helpers.small_instance_gen
    (fun inst ->
      let app = inst.Insp.Instance.app in
      let n = App.n_operators app in
      let group = List.init (min 6 n) Fun.id in
      let whole = Demand.of_group (Insp.Graph.of_app app) group in
      let parts = List.map (Demand.of_operator (Insp.Graph.of_app app)) group in
      let sum f = List.fold_left (fun acc d -> acc +. f d) 0.0 parts in
      (* Compute is exactly additive; NIC terms only shrink by grouping. *)
      Helpers.float_eq ~eps:1e-6 whole.Demand.compute
        (sum (fun d -> d.Demand.compute))
      && whole.Demand.download <= sum (fun d -> d.Demand.download) +. 1e-6
      && Demand.nic whole
         <= sum (fun d -> Demand.nic d) +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Check                                                               *)

let tiny_env () = (Helpers.tiny_app (), Helpers.tiny_platform ())

let test_check_feasible () =
  let app, platform = tiny_env () in
  Alcotest.(check string) "one-proc feasible" "feasible"
    (Check.explain (Check.check app platform (tiny_alloc_one ())));
  Alcotest.(check string) "two-proc feasible" "feasible"
    (Check.explain (Check.check app platform (tiny_alloc_two ())))

let has_violation pred violations = List.exists pred violations

let test_check_unassigned () =
  let app, platform = tiny_env () in
  let alloc =
    Alloc.make
      [| { Alloc.config = cfg (); operators = [ 0; 1 ]; downloads = [ (0, 0); (1, 0) ] } |]
  in
  Alcotest.(check bool) "unassigned flagged" true
    (has_violation
       (function Check.Unassigned_operator _ -> true | _ -> false)
       (Check.check app platform alloc))

let test_check_missing_download () =
  let app, platform = tiny_env () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1; 2; 3 ];
          downloads = [ (0, 0); (1, 0) ] (* o2 missing *);
        };
      |]
  in
  Alcotest.(check bool) "missing download flagged" true
    (has_violation
       (function
         | Check.Missing_download { object_type = 2; _ } -> true | _ -> false)
       (Check.check app platform alloc))

let test_check_extraneous_and_not_held () =
  let app, platform = tiny_env () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1 ];
          downloads = [ (0, 0); (1, 0); (2, 0) ];
          (* o2 not needed by {n0,n1}; also S0 does not hold o2 *)
        };
        {
          Alloc.config = cfg ();
          operators = [ 2; 3 ];
          downloads = [ (0, 1); (2, 1) ];
        };
      |]
  in
  let violations = Check.check app platform alloc in
  Alcotest.(check bool) "extraneous flagged" true
    (has_violation
       (function
         | Check.Extraneous_download { object_type = 2; _ } -> true
         | _ -> false)
       violations);
  Alcotest.(check bool) "not held flagged" true
    (has_violation
       (function
         | Check.Not_held { object_type = 2; server = 0; _ } -> true
         | _ -> false)
       violations)

(* A plan entry naming an object type outside the catalog is a download
   from a server that cannot hold it, not an exception. *)
let test_check_unknown_object_type () =
  let app, platform = tiny_env () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1; 2; 3 ];
          downloads = [ (-1, 0); (0, 0); (1, 0); (2, 1); (7, 0) ];
        };
      |]
  in
  let violations = Check.check app platform alloc in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "o%d not held" k)
        true
        (has_violation
           (function
             | Check.Not_held { proc = 0; object_type; server = 0 } ->
               object_type = k
             | _ -> false)
           violations))
    [ -1; 7 ]

let test_check_compute_overload () =
  let app, platform = tiny_env () in
  (* The tiny app is light (170 Mops/s); raise rho to overload the
     cheapest CPU: 100 * 170 = 17000 > 11720. *)
  let heavy =
    App.make ~rho:100.0 ~tree:(App.tree app) ~objects:(App.objects app)
      ~alpha:1.0 ()
  in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ~cpu:0 ~nic:4 ();
          operators = [ 0; 1; 2; 3 ];
          downloads = [ (0, 0); (1, 0); (2, 1) ];
        };
      |]
  in
  Alcotest.(check bool) "compute overload flagged" true
    (has_violation
       (function Check.Compute_overload _ -> true | _ -> false)
       (Check.check heavy platform alloc))

let test_check_nic_overload () =
  let app, platform = tiny_env () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ~cpu:4 ~nic:0 ();
          operators = [ 0; 1 ];
          downloads = [ (0, 0); (1, 0) ];
        };
        {
          Alloc.config = cfg ~cpu:4 ~nic:0 ();
          operators = [ 2; 3 ];
          downloads = [ (0, 1); (2, 1) ];
        };
      |]
  in
  (* NIC 125 holds: P0 in-comm 50 + downloads 15 = 65 fits; raise rho. *)
  let heavy =
    App.make ~rho:4.0 ~tree:(App.tree app) ~objects:(App.objects app)
      ~alpha:1.0 ()
  in
  (* P0: comm_in = 4*50 = 200 > 125 *)
  Alcotest.(check bool) "nic overload flagged" true
    (has_violation
       (function Check.Nic_overload { proc = 0; _ } -> true | _ -> false)
       (Check.check heavy platform alloc))

let test_check_server_card_overload () =
  let app = Helpers.tiny_app () in
  (* Same platform but with a 20 MB/s card on S0: downloads o0+o1 = 15
     fit; both procs pulling o0 and o1 from S0 exceed it. *)
  let holds = [| [| true; true; false |]; [| true; false; true |] |] in
  let servers = Insp.Servers.make ~cards:[| 20.0; 10000.0 |] ~holds in
  let platform = Platform.make ~catalog:Catalog.dell_2008 ~servers () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1 ];
          downloads = [ (0, 0); (1, 0) ];
        };
        {
          Alloc.config = cfg ();
          operators = [ 2; 3 ];
          downloads = [ (0, 0); (2, 1) ];
        };
      |]
  in
  (* S0 serves 5 + 10 + 5 = 20 <= 20: feasible at the boundary. *)
  Alcotest.(check string) "at capacity ok" "feasible"
    (Check.explain (Check.check app platform alloc));
  let servers = Insp.Servers.make ~cards:[| 19.0; 10000.0 |] ~holds in
  let platform = Platform.make ~catalog:Catalog.dell_2008 ~servers () in
  Alcotest.(check bool) "over capacity flagged" true
    (has_violation
       (function
         | Check.Server_card_overload { server = 0; _ } -> true | _ -> false)
       (Check.check app platform alloc))

let test_check_server_link_overload () =
  let app = Helpers.tiny_app () in
  let holds = [| [| true; true; false |]; [| true; false; true |] |] in
  let servers = Insp.Servers.make ~cards:[| 10000.0; 10000.0 |] ~holds in
  let platform =
    Platform.make ~catalog:Catalog.dell_2008 ~servers ~server_link:12.0 ()
  in
  (* P0 pulls o0 (5) + o1 (10) from S0 over one 12 MB/s link. *)
  Alcotest.(check bool) "server link flagged" true
    (has_violation
       (function
         | Check.Server_link_overload { server = 0; proc = 0; _ } -> true
         | _ -> false)
       (Check.check app platform (tiny_alloc_one ())))

let test_check_proc_link_overload () =
  let app = Helpers.tiny_app () in
  let holds = [| [| true; true; false |]; [| true; false; true |] |] in
  let servers = Insp.Servers.make ~cards:[| 10000.0; 10000.0 |] ~holds in
  let platform =
    Platform.make ~catalog:Catalog.dell_2008 ~servers ~proc_link:40.0 ()
  in
  (* Edge n2 -> n0 carries 50 MB/s > 40. *)
  Alcotest.(check bool) "proc link flagged" true
    (has_violation
       (function Check.Proc_link_overload _ -> true | _ -> false)
       (Check.check app platform (tiny_alloc_two ())))

(* P0 = {n0, n3} and P1 = {n1, n2}: 80 MB/s flow into P0 and 10 MB/s into
   P1, so neither end's comm_in exceeds an 85 MB/s link while the pair's
   load (90) does.  The check's screen must add both ends. *)
let test_check_proc_link_both_ends () =
  let app, platform = tiny_env () in
  let platform = { platform with Platform.proc_link = 85.0 } in
  let alloc =
    Alloc.make
      [|
        { Alloc.config = cfg (); operators = [ 0; 3 ]; downloads = [ (0, 0) ] };
        {
          Alloc.config = cfg ();
          operators = [ 1; 2 ];
          downloads = [ (0, 0); (1, 0); (2, 1) ];
        };
      |]
  in
  Alcotest.(check string) "the pair's load"
    "link P0<->P1 overload: 90.0 > 85.0 MB/s"
    (Check.explain (Check.check app platform alloc))

let test_check_duplicate_download () =
  let app, platform = tiny_env () in
  (* o0 is held by both servers: downloading it twice used to pass the
     structural check while double-counting 5 MB/s of NIC load. *)
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1; 2; 3 ];
          downloads = [ (0, 0); (0, 1); (1, 0); (2, 1) ];
        };
      |]
  in
  let violations = Check.check app platform alloc in
  Alcotest.(check bool) "duplicate flagged" true
    (has_violation
       (function
         | Check.Duplicate_download { proc = 0; object_type = 0 } -> true
         | _ -> false)
       violations);
  Alcotest.(check int) "exactly one violation" 1 (List.length violations);
  (* The NIC double-count is real: the plan rate exceeds the demand's
     deduplicated download term by one extra o0 stream (5 MB/s). *)
  let d = Demand.of_group (Insp.Graph.of_app app) [ 0; 1; 2; 3 ] in
  Helpers.alco_float "double-counted NIC" (d.Demand.download +. 5.0)
    (Check.measure (Insp.Graph.of_app app) alloc).Check.plan_rates.(0)

(* One golden string per violation constructor: the renderings are part
   of the CLI/diagnostic surface. *)
let test_pp_violation_golden () =
  let golden =
    [
      (Check.Unassigned_operator 3, "operator n3 is unassigned");
      ( Check.Missing_download { proc = 1; object_type = 2 },
        "P1 misses a download source for o2" );
      ( Check.Extraneous_download { proc = 0; object_type = 4 },
        "P0 downloads o4 which no hosted operator needs" );
      ( Check.Duplicate_download { proc = 2; object_type = 1 },
        "P2 downloads o1 from more than one server (NIC load double-counted)"
      );
      ( Check.Not_held { proc = 0; object_type = 1; server = 5 },
        "P0 downloads o1 from S5 which does not hold it" );
      ( Check.Compute_overload { proc = 0; load = 120.5; capacity = 100.0 },
        "P0 compute overload: 120.5 > 100.0 Mops/s" );
      ( Check.Nic_overload { proc = 1; load = 130.0; capacity = 125.0 },
        "P1 NIC overload: 130.0 > 125.0 MB/s" );
      ( Check.Server_card_overload { server = 2; load = 20.5; capacity = 20.0 },
        "S2 card overload: 20.5 > 20.0 MB/s" );
      ( Check.Server_link_overload
          { server = 0; proc = 3; load = 15.0; capacity = 12.0 },
        "link S0->P3 overload: 15.0 > 12.0 MB/s" );
      ( Check.Proc_link_overload
          { proc_a = 0; proc_b = 1; load = 50.0; capacity = 40.0 },
        "link P0<->P1 overload: 50.0 > 40.0 MB/s" );
    ]
  in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check string) expected expected
        (Check.explain [ v ]))
    golden;
  Alcotest.(check string) "explain feasible" "feasible" (Check.explain []);
  Alcotest.(check string) "explain joins lines"
    "operator n0 is unassigned\noperator n1 is unassigned"
    (Check.explain
       [ Check.Unassigned_operator 0; Check.Unassigned_operator 1 ])

let test_pair_flow () =
  let app = Helpers.tiny_app () in
  let a = tiny_alloc_two () in
  Helpers.alco_float "pair flow" 50.0 (Helpers.pair_flow app a 0 1);
  Helpers.alco_float "symmetric" 50.0 (Helpers.pair_flow app a 1 0)

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)

let test_cost () =
  let a = tiny_alloc_two () in
  let c = Catalog.dell_2008 in
  Helpers.alco_float "two best procs" (2.0 *. (7548.0 +. 5299.0 +. 5999.0))
    (Cost.of_alloc c a);
  Alcotest.(check int) "per-proc array" 2 (Array.length (Cost.per_proc c a))

let lower_bound_sound =
  qtest "cost lower bound below every heuristic outcome"
    Helpers.small_instance_gen (fun inst ->
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      let lb =
        Cost.lower_bound_cost (Insp.Graph.of_app app) platform.Platform.catalog
      in
      List.for_all
        (fun (_, r) ->
          match r with
          | Ok (o : Insp.Solve.outcome) -> lb <= o.cost +. 1e-6
          | Error _ -> true)
        (Insp.Solve.run_all ~seed:1 app platform))

(* ------------------------------------------------------------------ *)
(* Check.check pinned bit for bit                                      *)

module Servers = Insp.Servers

(* A deterministic allocation no heuristic chose: operators in
   consecutive id chunks, the best configuration everywhere, and every
   needed object from the lowest-indexed server holding it. *)
let chunked_procs app platform ~chunk =
  let n = App.n_operators app in
  let servers = platform.Platform.servers in
  let best = Catalog.best platform.Platform.catalog in
  Array.init
    ((n + chunk - 1) / chunk)
    (fun u ->
      let operators = List.init (min chunk (n - (u * chunk))) (fun j -> (u * chunk) + j) in
      let downloads =
        List.filter_map
          (fun k ->
            match Servers.providers servers k with
            | l :: _ -> Some (k, l)
            | [] -> None)
          (Insp.Graph.distinct_objects (Insp.Graph.of_app app) operators)
      in
      { Alloc.config = best; operators; downloads })

let map_first_download f (p : Alloc.proc) =
  match p.Alloc.downloads with
  | [] -> p
  | d :: rest -> { p with Alloc.downloads = f d @ rest }

(* The allocation perturbations, each aimed at some of the ten violation
   constructors; "links" shrinks the platform's link and card capacities
   instead of editing the allocation. *)
let perturbations platform =
  let servers = platform.Platform.servers in
  let n_servers = Servers.n_servers servers in
  let cheapest = Catalog.cheapest platform.Platform.catalog in
  let not_holding k l =
    let rec go j =
      if j >= n_servers then n_servers
      else if not (Servers.holds servers ((l + j) mod n_servers) k) then
        (l + j) mod n_servers
      else go (j + 1)
    in
    go 1
  in
  let shrunk =
    let n_types = Servers.n_object_types servers in
    {
      platform with
      Platform.servers =
        Servers.make
          ~cards:(Array.init n_servers (fun l -> 0.02 *. Servers.card servers l))
          ~holds:
            (Array.init n_servers (fun l ->
                 Array.init n_types (fun k -> Servers.holds servers l k)));
      server_link = 0.05 *. platform.Platform.server_link;
      proc_link = 0.05 *. platform.Platform.proc_link;
    }
  in
  [
    ("base", platform, Fun.id);
    ( "cheapest",
      platform,
      Array.map (fun (p : Alloc.proc) -> { p with Alloc.config = cheapest }) );
    ( "moved",
      platform,
      fun procs ->
        let procs = Array.copy procs in
        for u = 0 to Array.length procs - 2 do
          if u mod 2 = 0 then
            match List.rev procs.(u).Alloc.operators with
            | last :: (_ :: _ as keep) ->
              procs.(u) <- { (procs.(u)) with Alloc.operators = List.rev keep };
              procs.(u + 1) <-
                { (procs.(u + 1)) with
                  Alloc.operators = last :: procs.(u + 1).Alloc.operators }
            | _ -> ()
        done;
        procs );
    ( "dropped",
      platform,
      fun procs ->
        Array.mapi
          (fun u (p : Alloc.proc) ->
            let p = if u mod 2 = 1 then map_first_download (fun _ -> []) p else p in
            if u = 0 then { p with Alloc.operators = List.tl p.Alloc.operators }
            else p)
          procs );
    ( "duplicate",
      platform,
      Array.map
        (map_first_download (fun (k, l) -> [ (k, l); (k, (l + 1) mod n_servers) ]))
    );
    ( "wrong_server",
      platform,
      Array.map (map_first_download (fun (k, l) -> [ (k, not_holding k l) ])) );
    ("links", shrunk, Fun.id);
  ]

let kind_letter = function
  | Check.Unassigned_operator _ -> 'U'
  | Check.Missing_download _ -> 'M'
  | Check.Extraneous_download _ -> 'E'
  | Check.Duplicate_download _ -> 'D'
  | Check.Not_held _ -> 'H'
  | Check.Compute_overload _ -> 'C'
  | Check.Nic_overload _ -> 'N'
  | Check.Server_card_overload _ -> 'K'
  | Check.Server_link_overload _ -> 'S'
  | Check.Proc_link_overload _ -> 'P'

(* Every field of a violation, loads and capacities in %h so a change in
   the last bit of a float sum shows. *)
let render_violation v =
  let c = kind_letter v in
  match v with
  | Check.Unassigned_operator i -> Printf.sprintf "%c %d" c i
  | Check.Missing_download { proc; object_type }
  | Check.Extraneous_download { proc; object_type }
  | Check.Duplicate_download { proc; object_type } ->
    Printf.sprintf "%c %d %d" c proc object_type
  | Check.Not_held { proc; object_type; server } ->
    Printf.sprintf "%c %d %d %d" c proc object_type server
  | Check.Compute_overload { proc; load; capacity }
  | Check.Nic_overload { proc; load; capacity } ->
    Printf.sprintf "%c %d %h %h" c proc load capacity
  | Check.Server_card_overload { server; load; capacity } ->
    Printf.sprintf "%c %d %h %h" c server load capacity
  | Check.Server_link_overload { server; proc; load; capacity } ->
    Printf.sprintf "%c %d %d %h %h" c server proc load capacity
  | Check.Proc_link_overload { proc_a; proc_b; load; capacity } ->
    Printf.sprintf "%c %d %d %h %h" c proc_a proc_b load capacity

(* One line per (case, perturbation): the count of each violation kind
   and the digest of the full ordered rendering. *)
let check_golden_lines () =
  let seen = Hashtbl.create 10 in
  let lines =
    List.concat_map
      (fun idx ->
        let inst = Helpers.corpus_instance idx in
        let app = inst.Insp.Instance.app in
        let platform = inst.Insp.Instance.platform in
        let procs = chunked_procs app platform ~chunk:(1 + (idx mod 6)) in
        List.map
          (fun (name, platform, perturb) ->
            let vs = Check.check app platform (Alloc.make (perturb procs)) in
            let kinds =
              String.concat ""
                (List.filter_map
                   (fun c ->
                     match List.length (List.filter (fun v -> kind_letter v = c) vs) with
                     | 0 -> None
                     | n -> Some (Printf.sprintf " %c%d" c n))
                   [ 'U'; 'M'; 'E'; 'D'; 'H'; 'C'; 'N'; 'K'; 'S'; 'P' ])
            in
            List.iter (fun v -> Hashtbl.replace seen (kind_letter v) ()) vs;
            Printf.sprintf "%d %s%s %s\n" idx name kinds
              (Digest.to_hex
                 (Digest.string (String.concat "\n" (List.map render_violation vs)))))
          (perturbations platform))
      (List.init Helpers.corpus_size Fun.id)
  in
  (String.concat "" lines, Hashtbl.length seen)

(* The violation lists of the 200-instance corpus and its perturbations,
   against test/check_violations.golden (see Helpers.check_golden). *)
let test_check_violations_golden () =
  let actual, kinds = check_golden_lines () in
  Alcotest.(check int) "the corpus reaches all ten violation kinds" 10 kinds;
  Helpers.check_golden ~what:"Check.check" "check_violations.golden" actual

let () =
  Alcotest.run "mapping"
    [
      ( "alloc",
        [
          Alcotest.test_case "accessors" `Quick test_alloc_accessors;
          Alcotest.test_case "validation" `Quick test_alloc_validation;
          Alcotest.test_case "updates" `Quick test_alloc_updates;
        ] );
      ( "demand",
        [
          Alcotest.test_case "single group" `Quick test_demand_single_group;
          Alcotest.test_case "split group" `Quick test_demand_split_group;
          Alcotest.test_case "duplicates" `Quick test_demand_duplicates_ignored;
          Alcotest.test_case "fits" `Quick test_demand_fits;
          demand_decomposes;
        ] );
      ( "check",
        [
          Alcotest.test_case "feasible allocations" `Quick test_check_feasible;
          Alcotest.test_case "unassigned" `Quick test_check_unassigned;
          Alcotest.test_case "missing download" `Quick
            test_check_missing_download;
          Alcotest.test_case "extraneous + not held" `Quick
            test_check_extraneous_and_not_held;
          Alcotest.test_case "unknown object type" `Quick
            test_check_unknown_object_type;
          Alcotest.test_case "compute overload" `Quick
            test_check_compute_overload;
          Alcotest.test_case "nic overload" `Quick test_check_nic_overload;
          Alcotest.test_case "server card overload" `Quick
            test_check_server_card_overload;
          Alcotest.test_case "server link overload" `Quick
            test_check_server_link_overload;
          Alcotest.test_case "proc link overload" `Quick
            test_check_proc_link_overload;
          Alcotest.test_case "proc link loaded from both ends" `Quick
            test_check_proc_link_both_ends;
          Alcotest.test_case "duplicate download" `Quick
            test_check_duplicate_download;
          Alcotest.test_case "pp_violation golden" `Quick
            test_pp_violation_golden;
          Alcotest.test_case "pair flow" `Quick test_pair_flow;
          Alcotest.test_case "violations golden" `Quick
            test_check_violations_golden;
        ] );
      ( "cost",
        [
          Alcotest.test_case "totals" `Quick test_cost;
          lower_bound_sound;
        ] );
    ]
