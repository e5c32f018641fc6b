(* 100k-operator scale machinery (DESIGN.md §16):

   - the candidate-queue Comp-Greedy and the probe-cache Comm-Greedy
     must commit byte-identical solutions to their legacy
     scan-everything twins on a batch of random small/mid instances
     (the queues may only skip probes that were certain to fail);
   - the arena id discipline (dense ids, never reused, generation
     stamps) that the lazy-deletion queues rely on;
   - the lazy-deletion heap itself: a stale candidate can never win a
     pop;
   - the typed generator errors for operator counts the platform
     catalog cannot host. *)

module H_comp = Insp_heuristics.H_comp_greedy
module H_comm = Insp_heuristics.H_comm_greedy
module Cand_queue = Insp_heuristics.Cand_queue

(* ------------------------------------------------------------------ *)
(* Queue greedy vs legacy scan greedy: byte-identical solutions        *)

(* Everything observable about a solve outcome except probe noise: the
   exact cost bits, the processor count and the full allocation
   rendering (configs, operator groups, download plans). *)
let render_outcome = function
  | Ok (o : Insp.Solve.outcome) ->
    Printf.sprintf "ok cost=%h procs=%d\n%s" o.Insp.Solve.cost
      o.Insp.Solve.n_procs
      (Format.asprintf "%a" Insp.Alloc.pp o.Insp.Solve.alloc)
  | Error f -> "fail " ^ Insp.Solve.failure_message f

let solve key inst =
  match Insp.Solve.find key with
  | None -> Alcotest.failf "unknown heuristic %s" key
  | Some h ->
    render_outcome
      (Insp.Solve.run ~seed:1 h inst.Insp.Instance.app
         inst.Insp.Instance.platform)

let test_comp_queue_equivalence () =
  for idx = 0 to Helpers.corpus_size - 1 do
    let inst = Helpers.corpus_instance idx in
    let queue = H_comp.with_candidate_queue true (fun () -> solve "comp" inst) in
    let scan = H_comp.with_candidate_queue false (fun () -> solve "comp" inst) in
    Alcotest.(check string)
      (Printf.sprintf "case %d: queue and scan Comp-Greedy agree" idx)
      scan queue
  done

let test_comm_cache_equivalence () =
  for idx = 0 to Helpers.corpus_size - 1 do
    let inst = Helpers.corpus_instance idx in
    let cached = H_comm.with_probe_cache true (fun () -> solve "comm" inst) in
    let fresh = H_comm.with_probe_cache false (fun () -> solve "comm" inst) in
    Alcotest.(check string)
      (Printf.sprintf "case %d: cached and fresh Comm-Greedy agree" idx)
      fresh cached
  done

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
      (Insp.Alloc.n_operators_assigned o.Insp.Solve.alloc)
  | Error f -> Alcotest.fail (Insp.Solve.failure_message f)

(* ------------------------------------------------------------------ *)
(* Arena id discipline                                                 *)

let test_arena_id_stability () =
  let a = Insp.Arena.create () in
  let ids = List.init 100 (fun _ -> Insp.Arena.alloc a) in
  Alcotest.(check (list int)) "ids are dense preorder" (List.init 100 Fun.id) ids;
  Alcotest.(check int) "n_ids counts every allocation" 100 (Insp.Arena.n_ids a);
  (* Kill every third id; the survivors keep their ids and order. *)
  List.iter (fun i -> if i mod 3 = 0 then Insp.Arena.free a i) ids;
  let expected_live = List.filter (fun i -> i mod 3 <> 0) ids in
  Alcotest.(check (list int))
    "live_ids ascending after frees" expected_live (Insp.Arena.live_ids a);
  let seen = ref [] in
  Insp.Arena.iter_live a (fun i -> seen := i :: !seen);
  Alcotest.(check (list int))
    "iter_live visits ascending" expected_live (List.rev !seen);
  (* Freed ids are never handed out again; n_ids keeps growing. *)
  let fresh = Insp.Arena.alloc a in
  Alcotest.(check int) "ids never reused" 100 fresh;
  Alcotest.(check int) "n_ids after realloc" 101 (Insp.Arena.n_ids a);
  Alcotest.(check bool) "old id stays dead" false (Insp.Arena.is_live a 0);
  (* Generation stamps: touch bumps, so any cached view dated before
     the touch is recognizably stale. *)
  let g0 = Insp.Arena.generation a fresh in
  Insp.Arena.touch a fresh;
  Alcotest.(check bool)
    "touch bumps the stamp" true
    (Insp.Arena.generation a fresh > g0)

(* ------------------------------------------------------------------ *)
(* Lazy-deletion heap: a stale candidate can never win a pop           *)

let test_stale_candidate_never_wins () =
  let n = 60 in
  let ver = Array.make n 0 in
  let q = Cand_queue.create () in
  let score i = float_of_int ((i * 37 mod 19) - (i mod 5)) in
  for i = 0 to n - 1 do
    Cand_queue.push q ~score:(score i) ~tie:i ~gen:0 i
  done;
  Alcotest.(check int) "size counts pushes" n (Cand_queue.size q);
  (* Invalidate some candidates; re-push half of them with the fresh
     stamp (the other half must never surface again). *)
  for i = 0 to n - 1 do
    if i mod 3 = 0 then begin
      ver.(i) <- ver.(i) + 1;
      if i mod 6 = 0 then
        Cand_queue.push q ~score:(score i) ~tie:i ~gen:ver.(i) i
    end
  done;
  let expected =
    List.init n Fun.id
    |> List.filter (fun i -> i mod 3 <> 0 || i mod 6 = 0)
    |> List.sort (fun a b ->
           let c = compare (score b) (score a) in
           if c <> 0 then c else compare a b)
  in
  let popped = ref [] in
  let rec drain () =
    match Cand_queue.pop_valid q ~gen_of:(fun i -> ver.(i)) with
    | Some i ->
      (* pop_valid's contract: anything it yields carries the current
         stamp, so a stale candidate (bumped, not re-pushed) is
         impossible here — the expected list below encodes that. *)
      popped := i :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "pop_valid yields exactly the live candidates in priority order"
    expected (List.rev !popped);
  Alcotest.(check bool) "queue drained" true (Cand_queue.is_empty q)

(* pop (the raw variant) surfaces stale entries with their stored
   stamp — the caller's generation check is what drops them. *)
let test_raw_pop_reports_stamp () =
  let q = Cand_queue.create () in
  Cand_queue.push q ~score:1.0 ~tie:0 ~gen:7 "a";
  Cand_queue.push q ~score:2.0 ~tie:1 ~gen:3 "b";
  (match Cand_queue.pop q with
  | Some (v, stamp) ->
    Alcotest.(check string) "max first" "b" v;
    Alcotest.(check int) "stored stamp" 3 stamp
  | None -> Alcotest.fail "pop on non-empty queue");
  (match Cand_queue.pop q with
  | Some (v, stamp) ->
    Alcotest.(check string) "then the other" "a" v;
    Alcotest.(check int) "stored stamp" 7 stamp
  | None -> Alcotest.fail "pop on non-empty queue");
  Alcotest.(check bool) "empty after both" true (Cand_queue.is_empty q);
  Alcotest.(check (option (pair string int))) "pop on empty" None
    (Cand_queue.pop q)

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
          Alcotest.test_case "comm: cache = fresh on 200 instances" `Slow
            test_comm_cache_equivalence;
          Alcotest.test_case "scale preset solves at 2k" `Quick
            test_scale_preset_solves;
        ] );
      ( "arena",
        [ Alcotest.test_case "id stability" `Quick test_arena_id_stability ] );
      ( "cand-queue",
        [
          Alcotest.test_case "stale candidate never wins" `Quick
            test_stale_candidate_never_wins;
          Alcotest.test_case "raw pop reports the stored stamp" `Quick
            test_raw_pop_reports_stamp;
        ] );
      ( "workload",
        [
          Alcotest.test_case "generate_checked typed errors" `Quick
            test_generate_checked_rejects;
        ] );
    ]
