(* The online multi-tenant allocation service (DESIGN.md §13): stream
   well-formedness and determinism, the never-negative residual
   invariant after every event prefix, byte-identical restore on an
   admit-then-depart pair, journal byte-identity across equal-seed
   runs, and the accounting ties. *)

module Serve = Insp.Serve
module Stream = Insp.Serve_stream
module Obs = Insp.Obs
module Journal = Insp.Obs_journal

let params ?(tenancy = Serve.Shared) ?(proc_budget = 48)
    ?(card_scale = 0.08) ?(reoptimize = false) () =
  Serve.make_params
    ~base:(Insp.Config.make ~n_operators:60 ~seed:3 ())
    ~tenancy ~proc_budget ~card_scale ~reoptimize ()

let spec ?(seed = 3) ?(n_apps = 80) () = Stream.make ~n_apps ~seed ()

let scopes (p : Serve.params) =
  match p.Serve.tenancy with
  | Serve.Shared -> [ 0 ]
  | Serve.Static_slicing -> List.init p.Serve.n_tenants Fun.id

(* ------------------------------------------------------------------ *)
(* Stream                                                              *)

let test_stream_well_formed () =
  let s = spec ~n_apps:200 () in
  let events = Stream.events s in
  Alcotest.(check int) "two events per app" (2 * s.Stream.n_apps)
    (List.length events);
  let arrival_tick = Hashtbl.create 256 in
  let departed = Hashtbl.create 256 in
  List.iter
    (fun e ->
      match e with
      | Stream.Arrival { app; tenant; n_operators; t; _ } ->
        if Hashtbl.mem arrival_tick app then
          Alcotest.fail "duplicate arrival";
        Alcotest.(check bool) "tenant in range" true
          (tenant >= 0 && tenant < s.Stream.n_tenants);
        Alcotest.(check bool) "operator count in range" true
          (n_operators >= s.Stream.min_operators
          && n_operators <= s.Stream.max_operators);
        Hashtbl.add arrival_tick app t
      | Stream.Departure { app; t } -> (
        if Hashtbl.mem departed app then Alcotest.fail "double departure";
        match Hashtbl.find_opt arrival_tick app with
        | None -> Alcotest.fail "departure before arrival"
        | Some ta ->
          Alcotest.(check bool) "departs strictly after arrival" true (t > ta);
          Hashtbl.add departed app ()))
    events;
  Alcotest.(check int) "every app arrives" s.Stream.n_apps
    (Hashtbl.length arrival_tick);
  Alcotest.(check int) "every app departs" s.Stream.n_apps
    (Hashtbl.length departed);
  let time = function
    | Stream.Arrival { t; _ } | Stream.Departure { t; _ } -> t
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> time a <= time b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "events time-sorted" true (sorted events)

let test_stream_deterministic () =
  let s = spec ~n_apps:150 () in
  Alcotest.(check bool) "equal specs give equal streams" true
    (Stream.events s = Stream.events s);
  let other = spec ~seed:4 ~n_apps:150 () in
  Alcotest.(check bool) "different seeds differ" false
    (Stream.events s = Stream.events other)

(* ------------------------------------------------------------------ *)
(* Residual capacity                                                   *)

let check_residuals t p =
  List.iter
    (fun tenant ->
      Alcotest.(check bool) "residual procs never negative" true
        (Serve.residual_procs t ~tenant >= 0);
      Array.iter
        (fun c ->
          if c < -1e-6 then
            Alcotest.failf "negative residual card: %g" c)
        (Serve.residual_cards t ~tenant))
    (scopes p)

let run_checking p s =
  let t = Serve.create p in
  List.iter
    (fun e ->
      Serve.handle t e;
      check_residuals t p)
    (Stream.events s);
  t

let test_residual_never_negative_shared () =
  (* A budget tight enough that rejections actually occur: the
     invariant is vacuous on an uncontended platform. *)
  let p = params ~proc_budget:24 ~card_scale:0.05 () in
  let t = run_checking p (spec ~n_apps:120 ()) in
  Alcotest.(check bool) "budget binds (some rejections)" true
    ((Serve.totals t).Serve.rejected > 0)

let test_residual_never_negative_static () =
  let p =
    params ~tenancy:Serve.Static_slicing ~proc_budget:24 ~card_scale:0.05 ()
  in
  let t = run_checking p (spec ~n_apps:120 ()) in
  Alcotest.(check bool) "budget binds (some rejections)" true
    ((Serve.totals t).Serve.rejected > 0)

let test_residual_never_negative_reopt () =
  let p = params ~proc_budget:24 ~card_scale:0.05 ~reoptimize:true () in
  ignore (run_checking p (spec ~n_apps:120 ()))

(* ------------------------------------------------------------------ *)
(* Admit-then-depart restore                                           *)

(* The resource part of [Serve.dump_state]: live applications and
   residuals, without the tenant accounts. *)
let dump_resources t =
  String.split_on_char '\n' (Serve.dump_state t)
  |> List.filter (fun l -> not (String.starts_with ~prefix:"account " l))
  |> String.concat "\n"

let test_admit_depart_restores () =
  (* Generous capacity so the probe application is certainly admitted. *)
  let p = params ~proc_budget:10_000 ~card_scale:1.0 () in
  let t = Serve.create p in
  let events = Stream.events (spec ~n_apps:40 ()) in
  List.iteri (fun i e -> if i < 50 then Serve.handle t e) events;
  let before = dump_resources t in
  let live_before = Serve.n_live t in
  Serve.handle t
    (Stream.Arrival
       { app = 99_999; tenant = 0; n_operators = 12; app_seed = 77; t = 10_000 });
  Alcotest.(check int) "probe application admitted" (live_before + 1)
    (Serve.n_live t);
  Serve.handle t (Stream.Departure { app = 99_999; t = 10_001 });
  Alcotest.(check string) "resources restored byte-identically" before
    (dump_resources t)

(* ------------------------------------------------------------------ *)
(* Journal and dump determinism                                        *)

let run_journaled p events =
  let state, r =
    Obs.with_sink ~journal:true (fun () -> Serve.run p events)
  in
  (state, Journal.to_jsonl r.Obs.journal)

let test_journal_byte_identity () =
  let events = Stream.events (spec ()) in
  let p = params () in
  let s1, j1 = run_journaled p events in
  let s2, j2 = run_journaled p events in
  Alcotest.(check bool) "journal nonempty" true (String.length j1 > 0);
  Alcotest.(check string) "journals byte-identical" j1 j2;
  Alcotest.(check string) "state dumps byte-identical" (Serve.dump_state s1)
    (Serve.dump_state s2)

let test_journal_seed_sensitivity () =
  let p = params () in
  let _, j1 = run_journaled p (Stream.events (spec ())) in
  let _, j2 = run_journaled p (Stream.events (spec ~seed:4 ())) in
  Alcotest.(check bool) "different stream seeds diverge" false (j1 = j2)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)

let test_accounting_ties () =
  let p = params () in
  let t = Serve.run p (Stream.events (spec ~n_apps:150 ())) in
  let tot = Serve.totals t in
  Alcotest.(check int) "every arrival counted" 150
    (tot.Serve.admitted + tot.Serve.rejected);
  Alcotest.(check int) "stream fully drains" 0 tot.Serve.live;
  Alcotest.(check int) "admitted = departed + live" tot.Serve.admitted
    (tot.Serve.departed + tot.Serve.live);
  List.iter
    (fun (s : Serve.tenant_summary) ->
      Alcotest.(check int) "tenant admitted = departed + live" s.Serve.admitted
        (s.Serve.departed + s.Serve.live);
      Alcotest.(check bool) "net = purchased - refunded" true
        (Helpers.float_eq s.Serve.net_cost
           (s.Serve.purchased -. s.Serve.refunded));
      (* No re-optimization: each departure refunds exactly
         resale * cost, and every admitted app departs. *)
      Alcotest.(check bool) "refund ratio is the resale fraction" true
        (Helpers.float_eq ~eps:1e-6
           (s.Serve.refunded /. Float.max 1e-9 s.Serve.purchased)
           p.Serve.resale))
    (Serve.summary t)

let test_validation () =
  Alcotest.check_raises "zero tenants"
    (Invalid_argument "Serve.make_params: n_tenants < 1") (fun () ->
      ignore (Serve.make_params ~n_tenants:0 ()));
  Alcotest.check_raises "bad resale"
    (Invalid_argument "Serve.make_params: resale outside [0, 1]") (fun () ->
      ignore (Serve.make_params ~resale:1.5 ()));
  Alcotest.check_raises "bad card scale"
    (Invalid_argument "Serve.make_params: card_scale <= 0") (fun () ->
      ignore (Serve.make_params ~card_scale:0.0 ()));
  let t = Serve.create (params ()) in
  let arrival =
    Stream.Arrival
      { app = 1; tenant = 0; n_operators = 10; app_seed = 5; t = 0 }
  in
  Serve.handle t arrival;
  Alcotest.check_raises "duplicate arrival"
    (Invalid_argument "Serve.handle: duplicate arrival") (fun () ->
      Serve.handle t arrival);
  Alcotest.check_raises "tenant out of range"
    (Invalid_argument "Serve.handle: tenant outside the configured range")
    (fun () ->
      Serve.handle t
        (Stream.Arrival
           { app = 2; tenant = 99; n_operators = 10; app_seed = 5; t = 0 }))

(* ------------------------------------------------------------------ *)
(* Property: the residual invariant over random small streams          *)

let test_residual_property =
  Helpers.qtest ~count:15 "residuals stay non-negative on random streams"
    QCheck.(pair (int_range 0 500) (int_range 10 40))
    (fun (seed, n_apps) ->
      let s = Stream.make ~n_apps ~seed () in
      let p = params ~proc_budget:16 ~card_scale:0.05 () in
      let t = Serve.create p in
      List.for_all
        (fun e ->
          Serve.handle t e;
          Serve.residual_procs t ~tenant:0 >= 0
          && Array.for_all
               (fun c -> c >= -1e-6)
               (Serve.residual_cards t ~tenant:0))
        (Stream.events s))

let () =
  Alcotest.run "serve"
    [
      ( "stream",
        [
          Alcotest.test_case "well-formed" `Quick test_stream_well_formed;
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
        ] );
      ( "residual",
        [
          Alcotest.test_case "never negative (shared)" `Quick
            test_residual_never_negative_shared;
          Alcotest.test_case "never negative (static)" `Quick
            test_residual_never_negative_static;
          Alcotest.test_case "never negative (reopt)" `Quick
            test_residual_never_negative_reopt;
          test_residual_property;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "admit+depart restores state" `Quick
            test_admit_depart_restores;
          Alcotest.test_case "equal seeds, equal journals" `Quick
            test_journal_byte_identity;
          Alcotest.test_case "seed sensitivity" `Quick
            test_journal_seed_sensitivity;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "ties" `Quick test_accounting_ties;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
