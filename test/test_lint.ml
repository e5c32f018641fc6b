(* The insp_lint analyzer (DESIGN.md §9): golden report strings for
   every rule on fixture snippets — positive (fires), negative (does
   not), suppressed — in the pp_violation golden style of
   test_mapping.ml; plus baseline round-trips and the "repo is
   lint-clean" integration gate. *)

module Rule = Insp_lint.Rule
module Engine = Insp_lint.Engine
module Driver = Insp_lint.Driver

let render f = Format.asprintf "%a" Rule.pp_text f

let rec mkdirs path =
  if path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Every fixture corpus lives in one fresh temporary directory, removed
   at exit, so running the suite leaves the working directory as it
   found it.  The corpora keep their [*_fixtures] names: the cmt
   loader's skip rule keys on that suffix. *)
let fixture_root = Filename.temp_dir "insp_lint" ""

let () = at_exit (fun () -> rm_rf fixture_root)

let fixtures name = Filename.concat fixture_root name

(* Run [f] with [dir] as the working directory. *)
let in_dir dir f =
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) f

(* Lint [src] as if it were the repo file [file]: the source is written
   under lint_fixtures/ next to an empty interface (so P2 stays quiet)
   and linted under its repo name, which drives rule scoping. *)
let lint ?(file = "lib/fixture.ml") src =
  let path = Filename.concat (fixtures "lint_fixtures") file in
  mkdirs (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc src);
  Out_channel.with_open_text (path ^ "i") (fun _ -> ());
  List.map render (Engine.lint_file ~display:file path)

let check_reports name expected actual =
  Alcotest.(check (list string)) name expected actual

(* ------------------------------------------------------------------ *)
(* Rendering goldens: the report format is part of the contract.       *)

let test_pp_finding_golden () =
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Rule.id r)
        (Printf.sprintf "lib/a.ml:5:2: [%s] m" (Rule.id r))
        (render { Rule.rule = r; file = "lib/a.ml"; line = 5; col = 2; message = "m" }))
    Rule.all

let test_pp_csv_golden () =
  Alcotest.(check string)
    "csv quoting"
    {|F1,lib/x.ml,3,4,"compare on, well, floats"|}
    (Format.asprintf "%a" Rule.pp_csv
       {
         Rule.rule = Rule.F1;
         file = "lib/x.ml";
         line = 3;
         col = 4;
         message = "compare on, well, floats";
       });
  Alcotest.(check string)
    "a carriage return is quoted (RFC 4180)"
    "F1,lib/x.ml,3,4,\"a\rb\""
    (Format.asprintf "%a" Rule.pp_csv
       {
         Rule.rule = Rule.F1;
         file = "lib/x.ml";
         line = 3;
         col = 4;
         message = "a\rb";
       });
  Alcotest.(check string) "csv header" "rule,file,line,col,message" Rule.csv_header

(* ------------------------------------------------------------------ *)
(* D1: Stdlib.Random                                                   *)

let d1_src = {|let jitter () = Random.int 5
|}

let test_d1_positive () =
  check_reports "D1 fires"
    [
      "lib/fixture.ml:1:16: [D1] use of Random.int: Stdlib.Random is \
       nondeterministic; use the seeded Insp_util.Prng";
    ]
    (lint d1_src);
  check_reports "D1 fires on qualified Stdlib.Random.self_init"
    [
      "lib/fixture.ml:1:9: [D1] use of Random.self_init: Stdlib.Random is \
       nondeterministic; use the seeded Insp_util.Prng";
    ]
    (lint {|let () = Stdlib.Random.self_init ()
|})

let test_d1_negative () =
  (* The PRNG internals under lib/util are the one exemption. *)
  check_reports "D1 exempt in lib/util" []
    (lint ~file:"lib/util/prng_extra.ml" d1_src);
  check_reports "no Random, no finding" [] (lint {|let jitter () = 5
|})

let test_d1_suppressed () =
  check_reports "attribute suppression" []
    (lint {|let jitter () = (Random.int 5 [@lint.allow "d1"])
|})

(* ------------------------------------------------------------------ *)
(* D2: Hashtbl iteration feeding a list                                *)

let test_d2_positive () =
  check_reports "D2 fires on unsorted fold into a list"
    [
      "lib/fixture.ml:1:14: [D2] Hashtbl.fold builds a list in \
       hash-iteration order; pipe the result through List.sort / \
       List.sort_uniq";
    ]
    (lint {|let ids tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
|});
  check_reports "D2 fires on iter consing into a ref"
    [
      "lib/fixture.ml:1:16: [D2] Hashtbl.iter builds a list in \
       hash-iteration order; pipe the result through List.sort / \
       List.sort_uniq";
    ]
    (lint
       {|let pairs tbl = Hashtbl.iter (fun k v -> cells := (k, v) :: !cells) tbl
|})

let test_d2_negative () =
  check_reports "sorted fold passes" []
    (lint
       {|let ids tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare
|});
  check_reports "sort_uniq over an enclosing pipe passes" []
    (lint
       {|let ids us = List.concat_map (fun u -> Hashtbl.fold (fun k _ a -> k :: a) u []) us |> List.sort_uniq compare
|});
  check_reports "order-insensitive float fold passes" []
    (lint {|let total tbl = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0
|})

let test_d2_suppressed () =
  check_reports "comment directive on the preceding line" []
    (lint
       {|(* lint: allow d2 — consumed as a set downstream *)
let ids tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
|})

(* ------------------------------------------------------------------ *)
(* D3: wall-clock reads                                                *)

let d3_src = {|let t0 = Sys.time ()
|}

let test_d3_positive () =
  check_reports "D3 fires in lib"
    [
      "lib/fixture.ml:1:9: [D3] wall-clock read Sys.time is \
       nondeterministic; timing belongs in bench/ or the blessed \
       Insp_obs.Clock";
    ]
    (lint d3_src);
  check_reports "D3 fires on Unix.gettimeofday in test scope"
    [
      "test/fixture.ml:1:9: [D3] wall-clock read Unix.gettimeofday is \
       nondeterministic; timing belongs in bench/ or the blessed \
       Insp_obs.Clock";
    ]
    (lint ~file:"test/fixture.ml" {|let t0 = Unix.gettimeofday ()
|});
  (* The clock sanction is a single file, not the whole obs library:
     a wall-clock read in any sibling module still fires. *)
  check_reports "D3 still fires under lib/obs outside the clock module"
    [
      "lib/obs/metrics.ml:1:9: [D3] wall-clock read Sys.time is \
       nondeterministic; timing belongs in bench/ or the blessed \
       Insp_obs.Clock";
    ]
    (lint ~file:"lib/obs/metrics.ml" d3_src)

let test_d3_negative () =
  check_reports "bench is exempt" [] (lint ~file:"bench/fixture.ml" d3_src);
  check_reports "the blessed obs clock module is exempt" []
    (lint ~file:"lib/obs/clock.ml" {|let now () = Unix.gettimeofday ()
|})

let test_d3_suppressed () =
  check_reports "attribute on the binding" []
    (lint {|let t0 = Sys.time () [@@lint.allow "d3"]
|})

(* ------------------------------------------------------------------ *)
(* D4: Domain.spawn outside the sweep runner                           *)

let d4_src = {|let d = Domain.spawn (fun () -> work ())
|}

let test_d4_positive () =
  check_reports "D4 fires in lib"
    [
      "lib/fixture.ml:1:8: [D4] Domain.spawn outside the sweep runner; \
       route parallelism through Insp_experiments.Par_sweep so \
       partitioning and merge order stay deterministic";
    ]
    (lint d4_src);
  check_reports "D4 fires on spawn_on and in test scope"
    [
      "test/fixture.ml:1:8: [D4] Domain.spawn_on outside the sweep runner; \
       route parallelism through Insp_experiments.Par_sweep so \
       partitioning and merge order stay deterministic";
    ]
    (lint ~file:"test/fixture.ml"
       {|let d = Domain.spawn_on dom (fun () -> work ())
|});
  (* The sanction is the one file, not the whole experiments library. *)
  check_reports "D4 still fires in a sibling experiments module"
    [
      "lib/experiments/suite.ml:1:8: [D4] Domain.spawn outside the sweep \
       runner; route parallelism through Insp_experiments.Par_sweep so \
       partitioning and merge order stay deterministic";
    ]
    (lint ~file:"lib/experiments/suite.ml" d4_src)

let test_d4_negative () =
  check_reports "the sweep runner is exempt" []
    (lint ~file:"lib/experiments/par_sweep.ml" d4_src);
  check_reports "other Domain calls are fine" []
    (lint {|let n = Domain.recommended_domain_count ()
let () = Domain.join d
|})

let test_d4_suppressed () =
  check_reports "attribute suppression" []
    (lint {|let d = (Domain.spawn work [@lint.allow "d4"])
|})

(* ------------------------------------------------------------------ *)
(* D5: direct printing inside an engine library                        *)

let d5_src = {|let report u = Printf.printf "bought processor %d\n" u
|}

let test_d5_positive () =
  check_reports "D5 fires on Printf.printf in lib/heuristics"
    [
      "lib/heuristics/fixture.ml:1:15: [D5] direct printing (Printf.printf) \
       in an engine library; decision output must go through Obs.Journal \
       events";
    ]
    (lint ~file:"lib/heuristics/fixture.ml" d5_src);
  check_reports "D5 fires on print_endline in lib/lp"
    [
      "lib/lp/fixture.ml:1:9: [D5] direct printing (print_endline) in an \
       engine library; decision output must go through Obs.Journal events";
    ]
    (lint ~file:"lib/lp/fixture.ml" {|let () = print_endline "node"
|});
  check_reports "D5 fires on Format.printf in lib/sim"
    [
      "lib/sim/fixture.ml:1:9: [D5] direct printing (Format.printf) in an \
       engine library; decision output must go through Obs.Journal events";
    ]
    (lint ~file:"lib/sim/fixture.ml" {|let () = Format.printf "t=%f@." t
|})

let test_d5_negative () =
  (* Presentation layers are out of scope: the CLI, the figure/table
     rendering in lib/experiments, and every other library. *)
  check_reports "bin/ may print" [] (lint ~file:"bin/insp_cli.ml" d5_src);
  check_reports "lib/experiments figure rendering may print" []
    (lint ~file:"lib/experiments/figure.ml" d5_src);
  check_reports "other libraries may print" []
    (lint ~file:"lib/util/table.ml" d5_src);
  check_reports "sprintf into a buffer is fine" []
    (lint ~file:"lib/heuristics/fixture.ml"
       {|let msg u = Printf.sprintf "group %d" u
|})

let test_d5_suppressed () =
  check_reports "attribute suppression" []
    (lint ~file:"lib/sim/fixture.ml"
       {|let () = (Printf.printf "dbg %d" n [@lint.allow "d5"])
|})

(* ------------------------------------------------------------------ *)
(* D6: any unsorted Hashtbl iteration inside an engine library         *)

(* Order-insensitive under D2 (a float fold), but a float sum in hash
   order still changes observable bits — inside engine scope D6 fires. *)
let d6_src = {|let total tbl = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0
|}

let test_d6_positive () =
  check_reports "D6 fires on a float fold in lib/mapping"
    [
      "lib/mapping/fixture.ml:1:16: [D6] Hashtbl.fold iterates in hash \
       order inside an engine library; iterate a key-sorted snapshot or pipe \
       the result through List.sort";
    ]
    (lint ~file:"lib/mapping/fixture.ml" d6_src);
  check_reports "D6 fires on a side-effecting iter in lib/serve"
    [
      "lib/serve/fixture.ml:1:15: [D6] Hashtbl.iter iterates in hash order \
       inside an engine library; iterate a key-sorted snapshot or pipe the \
       result through List.sort";
    ]
    (lint ~file:"lib/serve/fixture.ml"
       {|let emit tbl = Hashtbl.iter (fun k v -> note k v) tbl
|});
  (* Inside engine scope D6 subsumes D2: one finding, tagged D6. *)
  check_reports "list-building fold reports D6, not D2, in lib/heuristics"
    [
      "lib/heuristics/fixture.ml:1:14: [D6] Hashtbl.fold iterates in hash \
       order inside an engine library; iterate a key-sorted snapshot or pipe \
       the result through List.sort";
    ]
    (lint ~file:"lib/heuristics/fixture.ml"
       {|let ids tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
|})

let test_d6_negative () =
  check_reports "sorted snapshot passes" []
    (lint ~file:"lib/mapping/fixture.ml"
       {|let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
|});
  (* Outside engine scope the weaker D2 contract applies: an
     order-insensitive fold stays clean. *)
  check_reports "float fold outside engine scope is D2/D6-clean" []
    (lint ~file:"lib/obs/fixture.ml" d6_src)

let test_d6_suppressed () =
  check_reports "attribute suppression" []
    (lint ~file:"lib/mapping/fixture.ml"
       {|let total tbl = (Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0 [@lint.allow "d6"])
|})

(* ------------------------------------------------------------------ *)
(* D7: Gc reads outside the allocation profiler                        *)

let d7_src = {|let s = Gc.quick_stat ()
|}

let test_d7_positive () =
  check_reports "D7 fires in lib"
    [
      "lib/fixture.ml:1:8: [D7] GC state read Gc.quick_stat in library \
       code; only the allocation profiler (lib/obs/prof.ml) samples Gc — \
       bracket the work with Obs.prof_enter/prof_exit instead";
    ]
    (lint d7_src);
  (* The sanction is a single file, not the whole obs library: a Gc
     read in a sibling module still fires. *)
  check_reports "D7 fires under lib/obs outside the profiler module"
    [
      "lib/obs/metrics.ml:1:8: [D7] GC state read Gc.minor_words in \
       library code; only the allocation profiler (lib/obs/prof.ml) \
       samples Gc — bracket the work with Obs.prof_enter/prof_exit instead";
    ]
    (lint ~file:"lib/obs/metrics.ml" {|let w = Gc.minor_words ()
|})

let test_d7_negative () =
  check_reports "bench is exempt: raw Gc reads are the measurement" []
    (lint ~file:"bench/fixture.ml" d7_src);
  check_reports "the allocation profiler is the sanctioned reader" []
    (lint ~file:"lib/obs/prof.ml" d7_src);
  check_reports "test scope is exempt" []
    (lint ~file:"test/fixture.ml" d7_src)

let test_d7_suppressed () =
  check_reports "comment directive on the preceding line" []
    (lint {|(* lint: allow d7 — one-shot heap figure in a debug dump *)
let s = Gc.quick_stat ()
|})

(* ------------------------------------------------------------------ *)
(* F1: float equality / polymorphic compare                            *)

let test_f1_positive () =
  check_reports "F1 fires on a float literal"
    [
      "lib/fixture.ml:1:16: [F1] = on a float literal; use a tolerance \
       (Insp_util.Stats.approx_eq or the checker's 1e-9 slack)";
    ]
    (lint {|let is_zero x = x = 0.0
|});
  check_reports "F1 fires on compare over a known float field"
    [
      "lib/fixture.ml:1:15: [F1] compare on float field 'compute'; use a \
       tolerance (Insp_util.Stats.approx_eq or the checker's 1e-9 slack)";
    ]
    (lint {|let same a b = compare a.compute b.compute = 0
|});
  check_reports "F1 fires on <> over a ledger flow field"
    [
      "lib/fixture.ml:1:11: [F1] <> on float field 'out_w'; use a tolerance \
       (Insp_util.Stats.approx_eq or the checker's 1e-9 slack)";
    ]
    (lint {|let ne f = f.out_w <> 0.5
|})

let test_f1_negative () =
  check_reports "ordering comparisons are fine" []
    (lint {|let lt a b = a.compute < b.compute
|});
  check_reports "equality without float evidence is fine" []
    (lint {|let eq a b = a = b
|});
  check_reports "tolerance helper is the blessed idiom" []
    (lint {|let same a b = Insp_util.Stats.approx_eq a.compute b.compute
|})

let test_f1_suppressed () =
  check_reports "attribute suppression" []
    (lint {|let is_zero x = ((x = 0.0) [@lint.allow "f1"])
|})

(* ------------------------------------------------------------------ *)
(* P1: partial stdlib calls in lib/                                    *)

let test_p1_positive () =
  check_reports "P1 fires on List.hd"
    [
      "lib/fixture.ml:1:14: [P1] partial call List.hd may raise; match \
       totally or justify a suppression";
    ]
    (lint {|let first l = List.hd l
|});
  check_reports "P1 fires on Option.get and List.nth"
    [
      "lib/fixture.ml:1:12: [P1] partial call Option.get may raise; match \
       totally or justify a suppression";
      "lib/fixture.ml:2:15: [P1] partial call List.nth may raise; match \
       totally or justify a suppression";
    ]
    (lint {|let get o = Option.get o
let pick l i = List.nth l i
|})

let test_p1_negative () =
  check_reports "P1 is scoped to lib/" []
    (lint ~file:"test/fixture.ml" {|let first l = List.hd l
|});
  check_reports "total match passes" []
    (lint {|let first = function [] -> None | x :: _ -> Some x
|})

let test_p1_suppressed () =
  check_reports "same-line comment directive" []
    (lint
       {|let first l = List.hd l (* lint: allow p1 — caller guarantees non-empty *)
|})

(* ------------------------------------------------------------------ *)
(* P2: missing interface files                                         *)

let fixture_dir = fixtures "p2_fixtures"

let write_fixture name content =
  if not (Sys.file_exists fixture_dir) then Sys.mkdir fixture_dir 0o755;
  let path = Filename.concat fixture_dir name in
  Out_channel.with_open_text path (fun oc -> output_string oc content);
  path

let test_p2_positive () =
  let path = write_fixture "no_mli.ml" "let x = 1\n" in
  check_reports "missing .mli is flagged"
    [
      "lib/no_mli.ml:1:0: [P2] missing interface no_mli.mli — every lib \
       module ships an .mli";
    ]
    (List.map render (Engine.lint_file ~display:"lib/no_mli.ml" path))

let test_p2_negative () =
  let path = write_fixture "has_mli.ml" "let x = 1\n" in
  let _ = write_fixture "has_mli.mli" "val x : int\n" in
  check_reports "matching .mli passes" []
    (List.map render (Engine.lint_file ~display:"lib/has_mli.ml" path));
  let bin_path = write_fixture "binary.ml" "let () = ()\n" in
  check_reports "P2 is scoped to lib/" []
    (List.map render (Engine.lint_file ~display:"bin/binary.ml" bin_path))

let test_p2_suppressed () =
  let path =
    write_fixture "p2_waived.ml"
      "(* lint: allow p2 — exploratory scratch module *)\nlet x = 1\n"
  in
  check_reports "line-1 comment directive waives P2" []
    (List.map render (Engine.lint_file ~display:"lib/p2_waived.ml" path))

(* ------------------------------------------------------------------ *)
(* P3: linear list search in the hot-path libraries                    *)

let p3_src = {|let rate_of k rates = List.assoc k rates
|}

let test_p3_positive () =
  check_reports "P3 fires on List.assoc in lib/mapping"
    [
      "lib/mapping/fixture.ml:1:22: [P3] List.assoc is a linear scan in a \
       hot-path library; index by int id (arena/SoA column) or justify the \
       bounded scan with a suppression";
    ]
    (lint ~file:"lib/mapping/fixture.ml" p3_src);
  check_reports "P3 fires on List.find_opt in lib/sim"
    [
      "lib/sim/fixture.ml:1:19: [P3] List.find_opt is a linear scan in a \
       hot-path library; index by int id (arena/SoA column) or justify the \
       bounded scan with a suppression";
    ]
    (lint ~file:"lib/sim/fixture.ml"
       {|let pick p procs = List.find_opt p procs
|})

let test_p3_negative () =
  (* Scope: the serve library builds small per-tenant lists and is not
     on the 100k-operator data path. *)
  check_reports "P3 is scoped to lib/{mapping,heuristics,sim}" []
    (lint ~file:"lib/serve/fixture.ml" p3_src);
  check_reports "indexed access passes" []
    (lint ~file:"lib/mapping/fixture.ml" {|let rate_of k rates = rates.(k)
|})

let test_p3_suppressed () =
  check_reports "comment directive waives P3" []
    (lint ~file:"lib/heuristics/fixture.ml"
       {|(* lint: allow p3 — catalog scan is bounded by a dozen configs *)
let cheapest p configs = List.find_opt p configs
|});
  check_reports "attribute waives P3" []
    (lint ~file:"lib/mapping/fixture.ml"
       {|let rate_of k rates = (List.assoc k rates [@lint.allow "p3"])
|})

(* ------------------------------------------------------------------ *)
(* Baseline round-trip                                                 *)

(* Lint a one-file tree through the driver, with an optional
   baseline; the exit code tells whether new findings remain. *)
let run_driver ?baseline ?(update_baseline = false) roots =
  Driver.run
    {
      Driver.format = Driver.Text;
      baseline;
      update_baseline;
      roots;
      only = None;
      deep = false;
      cmt_root = ".";
      allow_stale = false;
    }

let test_baseline () =
  let f =
    { Rule.rule = Rule.P1; file = "lib/x.ml"; line = 3; col = 4; message = "m" }
  in
  Alcotest.(check string) "baseline key" "P1 lib/x.ml:3:4" (Rule.baseline_key f);
  (* [Driver.run] lints a relative root from inside the fixture root,
     as `make lint` does from the repo root *)
  in_dir fixture_root @@ fun () ->
  let root = "baseline_fixtures" in
  mkdirs root;
  let write body =
    Out_channel.with_open_text (Filename.concat root "x.ml") (fun oc ->
        output_string oc body);
    Out_channel.with_open_text (Filename.concat root "x.mli") (fun _ -> ())
  in
  write "let first l = List.hd l\n";
  let baseline = write_fixture "lint.baseline" "" in
  Alcotest.(check int) "a new finding fails" 1 (run_driver ~baseline [ root ]);
  Alcotest.(check int) "update writes the baseline" 0
    (run_driver ~baseline ~update_baseline:true [ root ]);
  Alcotest.(check int) "grandfathered finding filtered" 0
    (run_driver ~baseline [ root ]);
  write "\nlet first l = List.hd l\n";
  Alcotest.(check int) "a new site is not grandfathered" 1
    (run_driver ~baseline [ root ]);
  Alcotest.(check int) "missing baseline file is empty" 1
    (run_driver ~baseline:"does_not_exist.baseline" [ root ])

let test_normalize () =
  Alcotest.(check string) "dots dropped" "lib/x.ml"
    (Insp_lint.Cmt_loader.normalize "../lib/./x.ml");
  Alcotest.(check string) "idempotent" "lib/x.ml"
    (Insp_lint.Cmt_loader.normalize "lib/x.ml")

(* ------------------------------------------------------------------ *)
(* Deep pass (DESIGN.md §14): T1-T3 over compiled typedtree fixtures   *)

module Cmt_loader = Insp_lint.Cmt_loader
module Callgraph = Insp_lint.Callgraph
module Effects = Insp_lint.Effects
module Deep = Insp_lint.Deep

let deep_dir = fixtures "deep_fixtures"

(* Write [files] (repo-shaped relative path, source) under a fresh case
   directory and compile each in order with ocamlc -bin-annot, so the
   .cmt records the same relative path the scoping predicates key on
   (["lib/sim/…"] is engine scope even inside a fixture universe). *)
let compile_universe case files =
  let root = Filename.concat deep_dir case in
  rm_rf root;
  List.iter
    (fun (rel, content) ->
      let path = Filename.concat root rel in
      mkdirs (Filename.dirname path);
      Out_channel.with_open_text path (fun oc -> output_string oc content))
    files;
  let incl =
    List.map (fun (rel, _) -> Filename.dirname rel) files
    |> List.sort_uniq compare
    |> List.map (fun d -> "-I " ^ d)
    |> String.concat " "
  in
  in_dir root (fun () ->
      List.iter
        (fun (rel, _) ->
          let cmd = Printf.sprintf "ocamlc -bin-annot -w -a %s -c %s" incl rel in
          if Sys.command cmd <> 0 then
            failwith ("fixture ocamlc failed: " ^ rel))
        files);
  root

let build_universe case files =
  let root = compile_universe case files in
  Callgraph.build (Cmt_loader.load ~root ())

let deep_reports case files =
  List.map render (Deep.analyze (build_universe case files))

(* T1: a deliberately racy module — top-level ref mutated from a
   spawned closure through a helper. *)
let racy_files =
  [
    ( "lib/mapping/leak.ml",
      "let counter = ref 0\n\
       let bump () = counter := !counter + 1\n\
       let run () =\n\
      \  let d = Domain.spawn (fun () -> bump ()) in\n\
      \  Domain.join d\n" );
  ]

let test_t1_positive () =
  check_reports "T1 fires on a ref written through a helper"
    [
      "lib/mapping/leak.ml:4:10: [T1] Domain.spawn closure reaches \
       top-level mutable state Leak.counter (ref) (via Leak.bump): \
       cross-domain write races; keep per-domain state in the closure and \
       merge after join";
    ]
    (deep_reports "t1_racy" racy_files)

let test_t1_opaque_worker () =
  (* A let-bound worker the resolver cannot chase: the closure is
     treated conservatively as the whole enclosing declaration. *)
  check_reports "T1 fires through an opaque local worker"
    [
      "lib/mapping/opaque.ml:4:10: [T1] Domain.spawn closure reaches \
       top-level mutable state Opaque.slots (ref): cross-domain write \
       races; keep per-domain state in the closure and merge after join";
    ]
    (deep_reports "t1_opaque"
       [
         ( "lib/mapping/opaque.ml",
           "let slots = ref 0\n\
            let run () =\n\
           \  let worker () = slots := !slots + 1 in\n\
           \  let d = Domain.spawn worker in\n\
           \  Domain.join d\n" );
       ])

let test_t1_negative () =
  (* Closure-local state and Atomic.t cells are not races. *)
  check_reports "local refs and Atomic.t pass"
    []
    (deep_reports "t1_safe"
       [
         ( "lib/mapping/safe.ml",
           "let total = Atomic.make 0\n\
            let run xs =\n\
           \  let d =\n\
           \    Domain.spawn (fun () ->\n\
           \        let acc = ref 0 in\n\
           \        List.iter (fun x -> acc := !acc + x) xs;\n\
           \        Atomic.set total !acc)\n\
           \  in\n\
           \  Domain.join d\n" );
       ])

let test_t1_suppressed () =
  check_reports "comment at the spawn site and at the state site"
    []
    (deep_reports "t1_suppressed"
       [
         ( "lib/mapping/quiet_race.ml",
           "let hits = ref 0\n\
            let run () =\n\
            \  (* lint: allow t1 — joined before any read; single writer *)\n\
            \  let d = Domain.spawn (fun () -> hits := !hits + 1) in\n\
            \  Domain.join d\n" );
         ( "lib/mapping/blessed_state.ml",
           "(* lint: allow t1 — guarded by an external protocol *)\n\
            let table : (int, int) Hashtbl.t = Hashtbl.create 16\n\
            let run () =\n\
            \  let d = Domain.spawn (fun () -> Hashtbl.replace table 1 1) in\n\
            \  Domain.join d\n" );
       ])

(* T2: determinism taint on engine-library entry points.  [tally] is
   direct hash-order iteration, [schedule] reaches Random through a
   sibling unit, [stamped] reads the wall clock; [tidy] is the
   canonicalized (sorted) form and [quiet] is pure. *)
let taint_files =
  [
    ("lib/sim/noise.ml", "let jitter n = Random.int n\n");
    ( "lib/sim/taint.mli",
      "val tally : (string, int) Hashtbl.t -> (string * int) list\n\
       val tidy : (string, int) Hashtbl.t -> (string * int) list\n\
       val schedule : int -> int\n\
       val quiet : int -> int\n\
       val stamped : unit -> float\n" );
    ( "lib/sim/taint.ml",
      "let tally tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n\
       let tidy tbl =\n\
      \  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])\n\
       let schedule n = Noise.jitter n\n\
       let quiet n = n + 1\n\
       let stamped () = Sys.time ()\n" );
    ( "lib/sim/use_taint.ml",
      "let use tbl =\n\
      \  (Taint.tally tbl, Taint.tidy tbl, Taint.schedule 1, Taint.quiet 2,\n\
      \   Taint.stamped ())\n" );
  ]

let test_t2_positive () =
  check_reports "T2 fires on direct, transitive and wall-clock taint"
    [
      "lib/sim/taint.ml:1:0: [T2] exported Taint.tally reaches \
       nondeterministic Hashtbl.fold at lib/sim/taint.ml:1: engine \
       outputs must be bit-reproducible — canonicalize with a sort, draw \
       from the seeded Rng, or suppress with a justification";
      "lib/sim/taint.ml:4:0: [T2] exported Taint.schedule reaches \
       nondeterministic Random.int (via Noise.jitter) at \
       lib/sim/noise.ml:1: engine outputs must be bit-reproducible — \
       canonicalize with a sort, draw from the seeded Rng, or suppress \
       with a justification";
      "lib/sim/taint.ml:6:0: [T2] exported Taint.stamped reaches \
       nondeterministic Sys.time at lib/sim/taint.ml:6: engine outputs \
       must be bit-reproducible — canonicalize with a sort, draw from the \
       seeded Rng, or suppress with a justification";
    ]
    (deep_reports "t2_taint" taint_files)

let test_t2_negative_scope () =
  (* The same taint outside the engine libraries is not an entry-point
     contract violation. *)
  check_reports "non-engine libraries are out of T2 scope"
    []
    (deep_reports "t2_scope"
       [
         ("lib/workload/wnoise.ml", "let jitter n = Random.int n\n");
         ("lib/workload/wtaint.mli", "val schedule : int -> int\n");
         ("lib/workload/wtaint.ml", "let schedule n = Wnoise.jitter n\n");
         ("lib/workload/use_wtaint.ml", "let use n = Wtaint.schedule n\n");
       ])

let test_t2_suppressed () =
  check_reports "comment at the definition, attribute on the mli val"
    []
    (deep_reports "t2_suppressed"
       [
         ( "lib/sim/hush.mli",
           "val loud : (string, int) Hashtbl.t -> string list\n\
            val waved : (string, int) Hashtbl.t -> string list\n\
            \  [@@lint.allow \"t2\"]\n" );
         ( "lib/sim/hush.ml",
           "(* lint: allow t2 — presentation order; caller re-sorts *)\n\
            let loud tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
            let waved tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n" );
         ("lib/sim/use_hush.ml", "let use tbl = (Hush.loud tbl, Hush.waved tbl)\n");
       ])

(* T3: dead exports. *)
let t3_message id =
  Printf.sprintf
    "[T3] %s is exported by the .mli but no non-test compilation unit \
     references it: delete it or drop it from the interface; a test oracle \
     that needs the module's internals keeps an allow-t3 comment naming its \
     test (DESIGN.md §14)"
    id

let test_t3_positive_and_suppressed () =
  check_reports "only the genuinely dead, unsuppressed export is flagged"
    [ "lib/util/dead.mli:2:0: " ^ t3_message "Dead.unused" ]
    (deep_reports "t3_dead"
       [
         ( "lib/util/dead.mli",
           "val used : int -> int\n\
            val unused : int -> int\n\
            (* lint: allow t3 — staged API for the next milestone *)\n\
            val kept : int -> int\n" );
         ( "lib/util/dead.ml",
           "let used x = x + 1\nlet unused x = x + 2\nlet kept x = x + 3\n" );
         ("lib/util/consumer.ml", "let apply x = Dead.used x\n");
       ])

(* Which referrers keep an export alive: another lib unit (also through
   a [let module] alias), a bin/ or bench/ unit — but not a test/ unit. *)
let test_t3_referrers () =
  check_reports "an export only a test references is dead"
    [ "lib/util/api.mli:5:0: " ^ t3_message "Api.test_only" ]
    (deep_reports "t3_referrers"
       [
         ( "lib/util/api.mli",
           "val lib_used : int -> int\n\
            val alias_used : int -> int\n\
            val bin_used : int -> int\n\
            val bench_used : int -> int\n\
            val test_only : int -> int\n" );
         ( "lib/util/api.ml",
           "let lib_used x = x\n\
            let alias_used x = x\n\
            let bin_used x = x\n\
            let bench_used x = x\n\
            let test_only x = x\n" );
         ( "lib/util/user.ml",
           "let direct x = Api.lib_used x\n\
            let aliased x =\n\
           \  let module A = Api in\n\
           \  A.alias_used x\n" );
         ("bin/main.ml", "let () = ignore (Api.bin_used 1)\n");
         ("bench/b.ml", "let () = ignore (Api.bench_used 1)\n");
         ("test/t.ml", "let () = ignore (Api.test_only 1)\n");
       ])

let test_deep_deterministic () =
  (* Two independent compiles and analyses of the same universe must
     render byte-identically. *)
  let a = deep_reports "det_a" racy_files in
  let b = deep_reports "det_b" racy_files in
  Alcotest.(check bool) "analysis produced findings" true (a <> []);
  Alcotest.(check (list string)) "byte-identical across runs" a b

(* ------------------------------------------------------------------ *)
(* Effects: touched state and nondeterminism witnesses              *)

let summaries_files =
  [
    ( "lib/mapping/levels.ml",
      "let pure_fn x = x + 1\n\
       let local_mut xs =\n\
      \  let acc = ref 0 in\n\
      \  List.iter (fun x -> acc := !acc + x) xs;\n\
      \  !acc\n\
       let cell = ref 0\n\
       let escape () = cell := 1\n\
       let noisy () = Random.int 3\n\
       let chain () = escape (); pure_fn 2\n\
       let sched () = noisy ()\n" );
  ]

let test_effect_summaries () =
  let cg = build_universe "summaries" summaries_files in
  let eff = Effects.analyze cg in
  let summary id =
    match Effects.summary eff id with
    | Some s -> s
    | None -> Alcotest.failf "%s has no summary" id
  in
  let touched id =
    List.map
      (fun (t : Effects.touch) -> (t.Effects.g, t.Effects.t_write, t.Effects.via))
      (summary id).Effects.touched
  in
  let nondet id = Option.is_some (summary id).Effects.nondet in
  Alcotest.(check bool) "pure touches nothing" true
    (touched "Levels.pure_fn" = [] && not (nondet "Levels.pure_fn"));
  Alcotest.(check bool) "local mutation touches no global" true
    (touched "Levels.local_mut" = []);
  Alcotest.(check bool) "escaping write" true
    (touched "Levels.escape" = [ ("Levels.cell", true, []) ]);
  Alcotest.(check bool) "the write propagates to callers" true
    (touched "Levels.chain" = [ ("Levels.cell", true, [ "Levels.escape" ]) ]);
  Alcotest.(check bool) "nondet" true (nondet "Levels.noisy");
  (* the witness names the primitive and the chain *)
  (match (summary "Levels.sched").Effects.nondet with
  | Some w ->
    Alcotest.(check string) "witness primitive" "Random.int" w.Effects.w_label;
    Alcotest.(check (list string)) "witness chain" [ "Levels.noisy" ]
      w.Effects.w_via
  | None -> Alcotest.fail "Levels.sched has no nondet witness");
  (* the graph records the mutable definition *)
  match
    List.find_opt
      (fun (d : Callgraph.decl) -> d.Callgraph.id = "Levels.cell")
      cg.Callgraph.decls
  with
  | Some d ->
    Alcotest.(check (option string)) "cell is a ref" (Some "ref")
      d.Callgraph.mutable_def
  | None -> Alcotest.fail "Levels.cell not in the graph"

(* ------------------------------------------------------------------ *)
(* Cmt loader: discovery, pairing, fixture-dir hygiene                 *)

let test_loader_pairing () =
  let root = compile_universe "loader"
      [
        ("lib/util/paired.mli", "val v : int\n");
        ("lib/util/paired.ml", "let v = 1\nlet internal = 2\n");
      ]
  in
  let loaded = Cmt_loader.load ~root () in
  (match loaded.Cmt_loader.units with
  | [ u ] ->
    Alcotest.(check string) "unit name" "Paired" u.Cmt_loader.name;
    Alcotest.(check (option string)) "impl source"
      (Some "lib/util/paired.ml") u.Cmt_loader.src;
    Alcotest.(check (option string)) "intf source"
      (Some "lib/util/paired.mli") u.Cmt_loader.intf_src;
    Alcotest.(check bool) "has both trees" true
      (u.Cmt_loader.impl <> None && u.Cmt_loader.intf <> None)
  | us ->
    Alcotest.failf "expected one merged unit, got %d" (List.length us));
  Alcotest.(check (list string)) "no staleness on a fresh build" []
    loaded.Cmt_loader.stale;
  (* a *_fixtures subtree inside the root is invisible: another unit's
     typedtree copied there does not join the universe *)
  let other =
    compile_universe "loader_other" [ ("lib/util/other.ml", "let w = 2\n") ]
  in
  let junk = Filename.concat root "junk_fixtures" in
  mkdirs junk;
  let cmt = Filename.concat other "lib/util/other.cmt" in
  Out_channel.with_open_bin (Filename.concat junk "other.cmt") (fun oc ->
      output_string oc (In_channel.with_open_bin cmt In_channel.input_all));
  Alcotest.(check (list string)) "fixture dirs are skipped" [ "Paired" ]
    (List.map
       (fun (u : Cmt_loader.unit_info) -> u.Cmt_loader.name)
       (Cmt_loader.load ~root ()).Cmt_loader.units)

let test_loader_missing () =
  match Cmt_loader.load ~root:"no_such_dir_anywhere" () with
  | _ -> Alcotest.fail "expected Cmt_error on an empty universe"
  | exception Cmt_loader.Cmt_error msg ->
    Alcotest.(check bool) "message points at the build step" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Driver plumbing for the new surface: json format, porcelain parse   *)

let test_json_golden () =
  Alcotest.(check string) "canonical json finding"
    {|{"rule":"T1","file":"lib/a.ml","line":5,"col":2,"message":"m \"q\""}|}
    (Format.asprintf "%a" Rule.pp_json
       {
         Rule.rule = Rule.T1;
         file = "lib/a.ml";
         line = 5;
         col = 2;
         message = {|m "q"|};
       });
  Alcotest.(check string) "one object per finding"
    {|{"rule":"D1","file":"f.ml","line":1,"col":0,"message":"x"}|}
    (Format.asprintf "%a" Rule.pp_json
       { Rule.rule = Rule.D1; file = "f.ml"; line = 1; col = 0; message = "x" })

let test_porcelain () =
  Alcotest.(check (list string)) "porcelain covers tracked and untracked"
    [ "b.ml"; "lib/a.ml"; "new.ml"; "newdir"; "we ird.ml" ]
    (Driver.paths_of_porcelain
       [
         " M lib/a.ml";
         "?? newdir/";
         "R  old.ml -> new.ml";
         "A  b.ml";
         {|?? "we ird.ml"|};
       ]);
  Alcotest.(check (list string)) "blank and short lines ignored" []
    (Driver.paths_of_porcelain [ ""; "??" ])

(* ------------------------------------------------------------------ *)
(* Integration: the repo itself is lint-clean                          *)

(* The checkout the integration cases lint: the nearest directory from
   the cwd up that holds both lint.baseline and lib/.  That is the repo
   root when the executable runs from a checkout, and [_build/default]
   under [dune runtest], where the test's deps copy both. *)
let repo_root () =
  let rec up dir =
    if
      Sys.file_exists (Filename.concat dir "lint.baseline")
      && Sys.file_exists (Filename.concat dir "lib")
    then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.fail "no lint.baseline and lib/ above the cwd"
      else up parent
  in
  up (Sys.getcwd ())

let existing dirs = List.filter Sys.file_exists dirs

let test_repo_lint_clean () =
  in_dir (repo_root ()) (fun () ->
      let roots = existing [ "lib"; "bin"; "bench"; "test" ] in
      Alcotest.(check bool) "repo roots visible from the test sandbox" true
        (roots <> []);
      Alcotest.(check int) "repo is lint-clean (modulo baseline)" 0
        (run_driver ~baseline:"lint.baseline" roots))

(* Deep-pass counterpart of [test_repo_lint_clean]: the repo's own
   typedtrees must be T1/T2/T3-clean modulo the committed baseline.
   The typedtrees are those of [_build/default] in a checkout, and the
   root's own under [dune runtest].  When the test runs without a
   surrounding build universe (no .cmt there), the check is skipped
   rather than failed — the dune runtest lint rule still covers it. *)
let test_repo_deep_clean () =
  let root = repo_root () in
  let cmt_root =
    if Sys.file_exists (Filename.concat root "_build/default") then
      "_build/default"
    else "."
  in
  match Cmt_loader.load ~root:(Filename.concat root cmt_root) () with
  | exception Cmt_loader.Cmt_error _ -> ()
  | _ ->
    (* from the repo root, as `make lint-deep` runs it *)
    let code =
      in_dir root (fun () ->
          Driver.run
            {
              Driver.format = Driver.Text;
              baseline = Some "lint.baseline";
              update_baseline = false;
              roots = existing [ "lib"; "bin"; "bench"; "test" ];
              only = None;
              deep = true;
              cmt_root;
              allow_stale = true;
            })
    in
    Alcotest.(check int) "repo typedtrees are deep-clean (modulo baseline)" 0
      code

(* Absolute roots must give the findings relative roots give: a
   fixture universe linted once from inside with [.] roots and once
   from the test directory with absolute ones, every finding written to
   a baseline file per run.  The universe has a T1 race, a race waived
   by a comment the deep pass must read through the source root, and
   (not compiled) a wall-clock read in lib/obs/clock.ml, where D3 is
   sanctioned. *)
let test_absolute_roots () =
  let root =
    compile_universe "abs_roots"
      (racy_files
      @ [
          ( "lib/mapping/quiet_race.ml",
            "let hits = ref 0\n\
             let run () =\n\
             \  (* lint: allow t1 — joined before any read *)\n\
             \  let d = Domain.spawn (fun () -> hits := !hits + 1) in\n\
             \  Domain.join d\n" );
        ])
  in
  mkdirs (Filename.concat root "lib/obs");
  Out_channel.with_open_text (Filename.concat root "lib/obs/clock.ml")
    (fun oc -> output_string oc "let now () = Unix.gettimeofday ()\n");
  let findings ~cmt_root roots name =
    let baseline = Filename.concat root name in
    let code =
      Driver.run
        {
          Driver.format = Driver.Text;
          baseline = Some baseline;
          update_baseline = true;
          roots;
          only = None;
          deep = true;
          cmt_root;
          allow_stale = true;
        }
    in
    Alcotest.(check int) (name ^ " written") 0 code;
    In_channel.with_open_text baseline In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let relative =
    in_dir root (fun () -> findings ~cmt_root:"." [ "lib" ] "relative.baseline")
  in
  let keys =
    List.map (fun l -> String.sub l 0 (String.index l ':')) relative
    |> List.filter (fun k -> k.[0] = 'T' || String.starts_with ~prefix:"D3" k)
  in
  Alcotest.(check (list string))
    "relative roots: the one unwaived race, no D3" [ "T1 lib/mapping/leak.ml" ]
    keys;
  Alcotest.(check (list string))
    "absolute roots give the same findings" relative
    (findings ~cmt_root:root [ Filename.concat root "lib" ] "absolute.baseline")

(* The shipped baseline must stay empty for lib/mapping and
   lib/heuristics: those directories pass with no baseline at all. *)
let test_mapping_heuristics_clean_without_baseline () =
  in_dir (repo_root ()) (fun () ->
      let roots = existing [ "lib/mapping"; "lib/heuristics" ] in
      Alcotest.(check bool) "mapping/heuristics visible" true (roots <> []);
      check_reports "clean with an empty baseline" []
        (List.map render (Driver.lint_roots roots)))

let () =
  Alcotest.run "lint"
    [
      ( "render",
        [
          Alcotest.test_case "pp_text golden (all rules)" `Quick
            test_pp_finding_golden;
          Alcotest.test_case "pp_csv golden" `Quick test_pp_csv_golden;
        ] );
      ( "d1",
        [
          Alcotest.test_case "positive" `Quick test_d1_positive;
          Alcotest.test_case "negative" `Quick test_d1_negative;
          Alcotest.test_case "suppressed" `Quick test_d1_suppressed;
        ] );
      ( "d2",
        [
          Alcotest.test_case "positive" `Quick test_d2_positive;
          Alcotest.test_case "negative" `Quick test_d2_negative;
          Alcotest.test_case "suppressed" `Quick test_d2_suppressed;
        ] );
      ( "d3",
        [
          Alcotest.test_case "positive" `Quick test_d3_positive;
          Alcotest.test_case "negative" `Quick test_d3_negative;
          Alcotest.test_case "suppressed" `Quick test_d3_suppressed;
        ] );
      ( "d4",
        [
          Alcotest.test_case "positive" `Quick test_d4_positive;
          Alcotest.test_case "negative" `Quick test_d4_negative;
          Alcotest.test_case "suppressed" `Quick test_d4_suppressed;
        ] );
      ( "d5",
        [
          Alcotest.test_case "positive" `Quick test_d5_positive;
          Alcotest.test_case "negative" `Quick test_d5_negative;
          Alcotest.test_case "suppressed" `Quick test_d5_suppressed;
        ] );
      ( "d6",
        [
          Alcotest.test_case "positive" `Quick test_d6_positive;
          Alcotest.test_case "negative" `Quick test_d6_negative;
          Alcotest.test_case "suppressed" `Quick test_d6_suppressed;
        ] );
      ( "d7",
        [
          Alcotest.test_case "positive" `Quick test_d7_positive;
          Alcotest.test_case "negative" `Quick test_d7_negative;
          Alcotest.test_case "suppressed" `Quick test_d7_suppressed;
        ] );
      ( "f1",
        [
          Alcotest.test_case "positive" `Quick test_f1_positive;
          Alcotest.test_case "negative" `Quick test_f1_negative;
          Alcotest.test_case "suppressed" `Quick test_f1_suppressed;
        ] );
      ( "p1",
        [
          Alcotest.test_case "positive" `Quick test_p1_positive;
          Alcotest.test_case "negative" `Quick test_p1_negative;
          Alcotest.test_case "suppressed" `Quick test_p1_suppressed;
        ] );
      ( "p2",
        [
          Alcotest.test_case "positive" `Quick test_p2_positive;
          Alcotest.test_case "negative" `Quick test_p2_negative;
          Alcotest.test_case "suppressed" `Quick test_p2_suppressed;
        ] );
      ( "p3",
        [
          Alcotest.test_case "positive" `Quick test_p3_positive;
          Alcotest.test_case "negative" `Quick test_p3_negative;
          Alcotest.test_case "suppressed" `Quick test_p3_suppressed;
        ] );
      ( "t1",
        [
          Alcotest.test_case "positive" `Quick test_t1_positive;
          Alcotest.test_case "opaque worker" `Quick test_t1_opaque_worker;
          Alcotest.test_case "negative" `Quick test_t1_negative;
          Alcotest.test_case "suppressed" `Quick test_t1_suppressed;
        ] );
      ( "t2",
        [
          Alcotest.test_case "positive" `Quick test_t2_positive;
          Alcotest.test_case "negative (scope)" `Quick test_t2_negative_scope;
          Alcotest.test_case "suppressed" `Quick test_t2_suppressed;
        ] );
      ( "t3",
        [
          Alcotest.test_case "positive and suppressed" `Quick
            test_t3_positive_and_suppressed;
          Alcotest.test_case "test referrers do not count" `Quick
            test_t3_referrers;
        ] );
      ( "effects",
        [
          Alcotest.test_case "summaries and witnesses" `Quick
            test_effect_summaries;
        ] );
      ( "deep",
        [
          Alcotest.test_case "deterministic output" `Quick
            test_deep_deterministic;
        ] );
      ( "loader",
        [
          Alcotest.test_case "pairing and hygiene" `Quick test_loader_pairing;
          Alcotest.test_case "missing universe" `Quick test_loader_missing;
        ] );
      ( "driver",
        [
          Alcotest.test_case "baseline round-trip" `Quick test_baseline;
          Alcotest.test_case "path normalization" `Quick test_normalize;
          Alcotest.test_case "json golden" `Quick test_json_golden;
          Alcotest.test_case "porcelain paths" `Quick test_porcelain;
          Alcotest.test_case "absolute roots = relative roots" `Quick
            test_absolute_roots;
        ] );
      ( "integration",
        [
          Alcotest.test_case "repo is lint-clean" `Quick test_repo_lint_clean;
          Alcotest.test_case "repo typedtrees are deep-clean" `Quick
            test_repo_deep_clean;
          Alcotest.test_case "mapping+heuristics need no baseline" `Quick
            test_mapping_heuristics_clean_without_baseline;
        ] );
    ]
