(* Unit and property tests for Insp_util: PRNG, statistics, tables, CSV,
   heap. *)

module Prng = Insp.Prng
module Stats = Insp.Stats
module Table = Insp.Table
module Csv = Insp.Csv
module Heap = Insp.Heap

let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)

(* [Prng.float] consumes exactly one 64-bit draw and keeps 53 of its
   bits, so comparing floats bit-for-bit compares the raw streams. *)
let draw rng = Int64.bits_of_float (Prng.float rng)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (draw a) (draw b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if draw a = draw b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_split_changes_parent () =
  let a = Prng.create 9 and b = Prng.create 9 in
  ignore (Prng.split a);
  (* split consumes one draw from the parent *)
  ignore (draw b);
  Alcotest.(check int64) "parent advanced once" (draw a) (draw b)

let prng_float_in_range =
  qtest "float in [0,1)" QCheck.(int_range 0 100000) (fun seed ->
      let rng = Prng.create seed in
      let x = Prng.float rng in
      x >= 0.0 && x < 1.0)

let prng_int_in_bound =
  qtest "int in [0,bound)"
    QCheck.(pair (int_range 0 10000) (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let x = Prng.int rng bound in
      x >= 0 && x < bound)

let prng_int_range_inclusive =
  qtest "int_range inclusive"
    QCheck.(triple (int_range 0 1000) (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Prng.create seed in
      let x = Prng.int_range rng lo (lo + span) in
      x >= lo && x <= lo + span)

let prng_shuffle_is_permutation =
  qtest "shuffle permutes"
    QCheck.(pair (int_range 0 1000) (list_of_size Gen.(0 -- 30) int))
    (fun (seed, l) ->
      let rng = Prng.create seed in
      let arr = Array.of_list l in
      let n = Array.length arr in
      let shuffled =
        List.map (fun i -> arr.(i)) (Prng.sample_without_replacement rng n n)
      in
      List.sort compare shuffled = List.sort compare l)

let prng_sample_distinct =
  qtest "sample without replacement"
    QCheck.(pair (int_range 0 1000) (int_range 0 40))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let k = if n = 0 then 0 else n / 2 in
      let sample = Prng.sample_without_replacement rng k n in
      List.length sample = k
      && List.length (List.sort_uniq compare sample) = k
      && List.for_all (fun x -> x >= 0 && x < n) sample)

let test_prng_int_covers_values () =
  let rng = Prng.create 5 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Prng.int rng 10) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_known () =
  Helpers.alco_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check bool) "approx_eq within rel" true
    (Stats.approx_eq 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "approx_eq outside rel" false
    (Stats.approx_eq 1.0 (1.0 +. 1e-6))

let test_stats_empty () =
  Alcotest.check_raises "mean empty"
    (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []));
  Helpers.alco_float "mean singleton" 5.0 (Stats.mean [ 5.0 ]);
  Alcotest.(check bool) "approx_eq abs floor at zero" true
    (Stats.approx_eq 0.0 1e-13);
  Alcotest.(check bool) "approx_eq nan" false (Stats.approx_eq Float.nan 1.0)

let stats_mean_bounded =
  qtest "mean within min..max"
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
    (fun l ->
      let m = Stats.mean l in
      m >= List.fold_left Float.min infinity l -. 1e-9
      && m <= List.fold_left Float.max neg_infinity l +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table and CSV                                                       *)

let test_table_render () =
  let t = Table.create ~title:"demo" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  let count_char c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 s in
  Alcotest.(check bool) "has rules" true (count_char '+' >= 12);
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "cell x" true (contains "x");
  Alcotest.(check bool) "cell longer" true (contains "longer")

let test_table_short_row_padded () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Table.add_row t [ "only" ];
  Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0)

let test_table_too_many_cells () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "too many"
    (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_cell_float () =
  let c = Csv.create [ "x" ] in
  List.iter (fun x -> Csv.add_floats c [ x ]) [ 1.5; Float.nan; 1e-7; 123456789.0 ];
  Alcotest.(check string) "%.6g cells, NaN empty"
    "x\n1.5\n\n1e-07\n1.23457e+08\n" (Csv.to_string c)

let test_csv_quoting () =
  let c = Csv.create [ "plain"; "with,comma"; "say \"hi\"" ] in
  Csv.add_floats c [ 1.5; Float.nan; 2.0 ];
  let s = Csv.to_string c in
  Alcotest.(check string) "rfc4180"
    "plain,\"with,comma\",\"say \"\"hi\"\"\"\n1.5,,2\n" s

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.peek h = None);
  Heap.push h 3.0 "c";
  Heap.push h 1.0 "a";
  Heap.push h 2.0 "b";
  Alcotest.(check (option (pair (float 1e-9) string))) "peek" (Some (1.0, "a"))
    (Heap.peek h);
  Alcotest.(check (option (pair (float 1e-9) string))) "pop a" (Some (1.0, "a"))
    (Heap.pop h);
  Alcotest.(check (option (pair (float 1e-9) string))) "pop b" (Some (2.0, "b"))
    (Heap.pop h);
  Alcotest.(check (option (pair (float 1e-9) string))) "pop c" (Some (3.0, "c"))
    (Heap.pop h);
  Alcotest.(check bool) "drained" true (Heap.pop h = None)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ] order

let heap_drains_sorted =
  qtest "drains in sorted order"
    QCheck.(list_of_size Gen.(0 -- 100) (float_bound_exclusive 100.0))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let drained = drain [] in
      drained = List.sort compare keys)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "split advances parent" `Quick
            test_prng_split_changes_parent;
          Alcotest.test_case "int covers residues" `Quick
            test_prng_int_covers_values;
          prng_float_in_range;
          prng_int_in_bound;
          prng_int_range_inclusive;
          prng_shuffle_is_permutation;
          prng_sample_distinct;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "empty/edge" `Quick test_stats_empty;
          stats_mean_bounded;
        ] );
      ( "table+csv",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short row padded" `Quick test_table_short_row_padded;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "cell formatting" `Quick test_cell_float;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          heap_drains_sorted;
        ] );
    ]
