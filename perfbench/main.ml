(* Benchmark harness: runs one workload in this process and prints, as
   the last line of standard output, one JSON object with the run's
   correctness, op counts and metrics.  See perfbench/README.md.

     main.exe -workload NAME -seed N -seconds S -trace 0|1
     main.exe -workload NAME -fingerprints A-B

   Run from the repo root: committed fingerprints are read from
   perfbench/ref, and traced runs write their spans to perfbench/out.

   A run is: set-up (timed several times), one reference pass over
   every input with full output verification (also the warm-up), then
   ops cycled over the inputs until the time is up.  Untraced runs
   report the end-to-end metrics; traced runs split the time between
   the untraced loop and a loop of staged replays whose spans give the
   per-layer metrics. *)

open Measure

(* ------------------------------------------------------------------ *)
(* Committed fingerprints: "<seed> <md5>" lines per workload.           *)

let read_refs path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec loop acc =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ s; d ] -> (
          match int_of_string_opt s with
          | Some s -> loop ((s, d) :: acc)
          | None -> loop acc)
        | _ -> loop acc)
      | exception End_of_file ->
        close_in ic;
        acc
    in
    loop []
  end

(* ------------------------------------------------------------------ *)
(* One run                                                              *)

type counts = { mutable attempted : int; mutable failed : int }

let guarded counts k f =
  counts.attempted <- counts.attempted + 1;
  match f () with
  | ok -> if not ok then counts.failed <- counts.failed + 1
  | exception e ->
    counts.failed <- counts.failed + 1;
    Printf.eprintf "op %d raised %s\n%!" k (Printexc.to_string e)

let refs_dir = "perfbench/ref"
let spans_dir = "perfbench/out"

(* Reference pass: every input once, fully verified; the fingerprints
   it records are what later ops must reproduce. *)
let reference_pass (w : Workloads.t) counts =
  let fps = Array.make w.Workloads.n "" in
  let cost = ref 0.0 in
  for k = 0 to w.Workloads.n - 1 do
    w.Workloads.prepare k;
    guarded counts k (fun () ->
        let a = w.Workloads.op k ~full:true in
        fps.(k) <- a.Workloads.fp;
        cost := !cost +. a.Workloads.cost;
        if not a.Workloads.ok then
          Printf.eprintf "op %d: output failed verification\n%!" k;
        a.Workloads.ok)
  done;
  (fps, !cost)

let pass_digest fps = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list fps)))

(* Ops cycled over the inputs until [seconds] have passed.  Returns the
   latency (ms) of every op that completed, scaled to the reference
   machine speed, and the input of each.  The reference kernel is
   re-measured before an op whenever 100 ms have passed since the last
   sample. *)
let timed_loop (w : Workloads.t) counts fps ~seconds op =
  let lat = Samples.create () and inputs = Samples.create () in
  let deadline = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let i = ref 0 and speed = ref 1.0 and sampled = ref 0L in
  while now_ns () < deadline do
    let k = !i mod w.Workloads.n in
    w.Workloads.prepare !i;
    if ms_between !sampled (now_ns ()) >= 100.0 then begin
      speed := reference_ms /. reference_sample ();
      sampled := now_ns ()
    end;
    guarded counts k (fun () ->
        let t0 = now_ns () in
        let result = op k in
        Samples.add lat (ms_between t0 (now_ns ()) *. !speed);
        Samples.add inputs (float_of_int k);
        String.equal (result ~full:false).Workloads.fp fps.(k));
    incr i
  done;
  (Samples.to_array lat, Array.map int_of_float (Samples.to_array inputs))

(* Mean latency of each input over the loop's repetitions of it; nan
   for an input the loop never reached. *)
let input_means ~n (lat, inputs) =
  let sum = Array.make n 0.0 and count = Array.make n 0 in
  Array.iteri
    (fun j k ->
      sum.(k) <- sum.(k) +. lat.(j);
      count.(k) <- count.(k) + 1)
    inputs;
  Array.init n (fun k -> if count.(k) > 0 then sum.(k) /. float_of_int count.(k) else nan)

(* Traced over untraced time, on the inputs both loops reached: the sum
   over those inputs of each loop's mean latency, traced over untraced. *)
let trace_overhead ~n untraced traced =
  let u = input_means ~n untraced and t = input_means ~n traced in
  let num = ref 0.0 and den = ref 0.0 in
  for k = 0 to n - 1 do
    if Float.is_finite u.(k) && Float.is_finite t.(k) then begin
      num := !num +. t.(k);
      den := !den +. u.(k)
    end
  done;
  Workloads.ratio !num !den

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* Metric values by name; perfbench/run.py adds the units from
   BENCHMARK.json and reads a per-layer metric this workload does not
   produce as 0. *)
let print_result ~correct counts metrics =
  let fields =
    List.map (fun (name, v) -> Printf.sprintf "%S: %s" name (json_number v)) metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct counts.attempted counts.failed (String.concat ", " fields)

let run ~workload ~seed ~seconds ~trace =
  let make = List.assoc workload Workloads.all in
  let w = make ~seed in
  let counts = { attempted = 0; failed = 0 } in
  let (fps, cost), sink =
    if trace then Insp.Obs.with_sink (fun () -> reference_pass w counts)
    else (reference_pass w counts, Insp.Obs.create ())
  in
  (* Peak heap after set-up and one pass over every input, before the
     timed loops, whose sample buffers grow with the op rate. *)
  let peak_heap_mb = peak_heap_mb () in
  let digest = pass_digest fps in
  (match List.assoc_opt seed (read_refs (Filename.concat refs_dir (workload ^ ".txt"))) with
  | Some d when String.equal d digest -> ()
  | Some d ->
    Printf.eprintf "fingerprint %s differs from the committed %s for seed %d\n%!"
      digest d seed;
    counts.failed <- counts.failed + w.Workloads.n
  | None ->
    Printf.eprintf
      "no committed fingerprint for seed %d; outputs are checked against the \
       run's own reference pass only\n%!"
      seed);
  let untraced_s = if trace then seconds /. 2.0 else seconds in
  let untraced = timed_loop w counts fps ~seconds:untraced_s w.Workloads.op in
  (* Latency statistics are over inputs, each input counting once with
     its mean over the run.  Machine speed here drifts between phases a
     few seconds long, and a median over raw ops flips between them;
     a rare slow input, on the other hand, stays one input. *)
  let per_input =
    input_means ~n:w.Workloads.n untraced |> Array.to_list
    |> List.filter Float.is_finite |> Array.of_list
  in
  let p50 = median per_input in
  let tail = percentile per_input w.Workloads.tail in
  Printf.printf "%s seed %d: %d ops over %d inputs, p50 %.3f ms, p%g %.3f ms, setup %.3f s\n"
    workload seed (Array.length (fst untraced)) (Array.length per_input) p50
    (100.0 *. w.Workloads.tail) tail w.Workloads.setup_s;
  let metrics, cross_check_ok =
    if not trace then
      ( [
          ("setup_s", w.Workloads.setup_s);
          ("op_p50_ms", p50);
          ("op_tail_ms", tail);
          ("peak_heap_mb", peak_heap_mb);
          ("platform_cost_usd", cost);
        ],
        true )
    else begin
      let tr = Trace.create () in
      let traced =
        timed_loop w counts fps ~seconds:(seconds -. untraced_s) (fun k ->
            Trace.set_op tr k;
            w.Workloads.traced tr k)
      in
      let layers = Trace.layers tr in
      let op_layer = Hashtbl.find_opt layers "op" in
      let op_ms, op_self_ms, op_words, op_calls =
        match op_layer with
        | Some l -> (l.Trace.total_ms, l.Trace.self_ms, l.Trace.total_words, l.Trace.calls)
        | None -> (0.0, 0.0, 0.0, 0)
      in
      let specific = w.Workloads.layers sink layers in
      let universal =
        [
          ("generate.ms", w.Workloads.generate_ms);
          ("generate.words", w.Workloads.generate_words);
          ("op.words", Workloads.ratio op_words (float_of_int op_calls));
          ("obs.trace_overhead", trace_overhead ~n:w.Workloads.n untraced traced);
          ("trace.coverage", Workloads.ratio (op_ms -. op_self_ms) op_ms);
        ]
      in
      (* On seed 1, the stage words of scale_solve must be within 2% of
         the profiler's alloc.100k for the same solve. *)
      let cross_check_ok =
        match List.assoc_opt "alloc.stage_words_vs_100k" specific with
        | Some r when seed = 1 -> Float.abs (r -. 1.0) <= 0.02
        | _ -> true
      in
      if not cross_check_ok then prerr_endline "allocation cross-check failed";
      if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
      Trace.write tr
        (Filename.concat spans_dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed));
      (universal @ specific, cross_check_ok)
    end
  in
  List.iter (fun (n, v) -> Printf.printf "  %-32s %.6g\n" n v) metrics;
  let correct = counts.failed = 0 && cross_check_ok in
  print_result ~correct counts metrics

(* Fingerprints of the reference pass for a range of seeds, one
   "<seed> <md5>" line each: the content of perfbench/ref/<workload>.txt. *)
let fingerprints ~workload lo hi =
  let make = List.assoc workload Workloads.all in
  for seed = lo to hi do
    let w = make ~seed in
    let counts = { attempted = 0; failed = 0 } in
    let fps, _ = reference_pass w counts in
    if counts.failed > 0 then failwith (Printf.sprintf "seed %d: reference pass failed" seed);
    Printf.printf "%d %s\n%!" seed (pass_digest fps)
  done

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let range = ref None in
  Arg.parse
    [
      ("-workload", Arg.Set_string workload, "NAME workload to run");
      ("-seed", Arg.Set_int seed, "N input seed");
      ("-seconds", Arg.Set_float seconds, "S measured seconds");
      ("-trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ( "-fingerprints",
        Arg.String
          (fun s ->
            match String.split_on_char '-' s with
            | [ a; b ] -> range := Some (int_of_string a, int_of_string b)
            | _ -> raise (Arg.Bad "expected A-B")),
        "A-B print reference fingerprints for seeds A..B" );
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe -workload NAME -seed N -seconds S -trace 0|1";
  if not (List.mem_assoc !workload Workloads.all) then begin
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map fst Workloads.all));
    exit 2
  end;
  match !range with
  | Some (lo, hi) -> fingerprints ~workload:!workload lo hi
  | None ->
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
