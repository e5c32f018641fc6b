module Obs = Insp_obs.Obs
module Prng = Insp_util.Prng

let jobs_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 1)

let default_jobs () = Domain.DLS.get jobs_key

let with_jobs n f =
  if n < 1 then invalid_arg "Par_sweep.with_jobs: jobs < 1";
  let prev = Domain.DLS.get jobs_key in
  Domain.DLS.set jobs_key n;
  Fun.protect ~finally:(fun () -> Domain.DLS.set jobs_key prev) f

let map ?jobs f items =
  let jobs =
    match jobs with
    | Some j -> if j < 1 then invalid_arg "Par_sweep.map: jobs < 1" else j
    | None -> default_jobs ()
  in
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs = max 1 (min jobs n) in
  (* Every cell runs under its own fresh sink regardless of [jobs]:
     sequential and parallel runs record the exact same metrics and
     frame tree, and workers never share a registry or a tree. *)
  (* Journal inheritance must be captured here, on the calling domain:
     worker domains have no enclosing sink in their DLS, so [with_sink]'s
     inherit-from-prev default would silently disable journaling for
     every cell a spawned worker runs. *)
  let journal = Obs.journaling () in
  let journal_depth = Obs.journal_depth () in
  (* Profiling is captured here for the same reason; every cell gets
     its own fresh tree (explicit [~profile], never shared across
     domains), and [Obs.absorb] folds the cell trees back in canonical
     cell order, keeping the merged tree independent of [jobs]. *)
  let profile = Obs.profiling () in
  let run_cell i =
    try Ok (Obs.with_sink ~journal ~journal_depth ~profile (fun () -> f items.(i)))
    with e -> Error (i, e)
  in
  let results = Array.make n None in
  let store = List.iter (fun (i, r) -> results.(i) <- Some r) in
  if jobs = 1 then
    for i = 0 to n - 1 do
      results.(i) <- Some (run_cell i)
    done
  else begin
    (* Static stride partition: cell i -> worker (i mod jobs).  Worker 0
       is the calling domain, so [jobs] means [jobs] busy domains
       total. *)
    let worker w () =
      let acc = ref [] in
      let i = ref w in
      while !i < n do
        acc := (!i, run_cell !i) :: !acc;
        i := !i + jobs
      done;
      !acc
    in
    let spawned = List.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    store (worker 0 ());
    (* Cell exceptions are carried as values, so joins only raise on a
       crashed worker loop — and every domain is joined either way. *)
    List.iter (fun d -> store (Domain.join d)) spawned
  end;
  (* Absorb recorders into the caller's sink in canonical cell order —
     this is what makes merged metrics independent of [jobs] — then
     surface the lowest-indexed failure, if any. *)
  let failed = ref None in
  let out =
    Array.map
      (fun r ->
        match r with
        | None -> assert false (* every index is stored exactly once *)
        | Some (Ok (v, recorder)) ->
          Obs.absorb recorder;
          Some v
        | Some (Error (i, e)) ->
          (match !failed with
          | Some (j, _) when j <= i -> ()
          | _ -> failed := Some (i, e));
          None)
      results
  in
  match !failed with
  | Some (_, e) -> raise e
  | None ->
    Array.to_list (Array.map (function Some v -> v | None -> assert false) out)
