(* Instrumentation facade: a domain-local-but-swappable sink
   (DESIGN.md §10).

   Call sites in the engines use the guarded entry points below
   unconditionally; with no sink installed each call is one domain-local
   read and a match — cheap enough for hot loops (feasibility probes,
   simplex pivots, simulator events).  Installing a sink turns the same
   calls into registry updates.  The sink is deliberately ambient: the
   engines thread no handle, so instrumentation never changes an API.
   It lives in domain-local storage rather than a plain ref so that
   parallel sweep workers (Par_sweep) each record into their own sink
   with no sharing; recorders are merged on the spawning domain via
   [absorb]. *)

type t = { metrics : Metrics.t; journal : Journal.t; prof : Prof.t }

let create ?(profile = false) () =
  {
    metrics = Metrics.create ();
    journal = Journal.create ();
    prof = Prof.create ~profile ();
  }

let sink_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Domain.DLS.get sink_key
let enabled () = Option.is_some (active ())

(* [?journal] defaults to inheriting the enclosing sink's journaling
   state, so a nested [with_sink] (Par_sweep cells under a journaling
   CLI run) keeps recording decisions.  Worker domains have no enclosing
   sink in their DLS — Par_sweep captures the flag on the calling domain
   and passes it explicitly. *)
let with_sink ?journal ?journal_depth ?profile f =
  let prev = active () in
  (* [?profile] omitted: inherit the enclosing sink's frame tree — the
     same [Prof.t], not a fresh one, so frames opened inside nested
     scopes (serve admissions, fault repairs, the solver under a CLI
     run) accumulate into the run's single tree. *)
  let prof =
    match (profile, prev) with
    | Some profile, _ -> Prof.create ~profile ()
    | None, Some p -> p.prof
    | None, None -> Prof.create ~profile:false ()
  in
  let s = { metrics = Metrics.create (); journal = Journal.create (); prof } in
  let inherit_on =
    match prev with Some p -> Journal.recording p.journal | None -> false
  in
  let on = match journal with Some j -> j | None -> inherit_on in
  if on then begin
    let depth =
      match journal_depth with
      | Some d -> Some d
      | None -> (
        match prev with
        | Some p when Journal.recording p.journal ->
          Some (Journal.depth p.journal)
        | _ -> None)
    in
    Journal.enable ?depth s.journal
  end;
  Domain.DLS.set sink_key (Some s);
  let result =
    Fun.protect ~finally:(fun () -> Domain.DLS.set sink_key prev) f
  in
  (result, s)

let absorb r =
  match active () with
  | None -> ()
  | Some s ->
    Metrics.merge ~into:s.metrics r.metrics;
    if Journal.recording s.journal then Journal.merge ~into:s.journal r.journal;
    (* a worker's own tree; a nested scope that inherited the run's
       tree shares the object and has nothing to fold *)
    if not (s.prof == r.prof) then Prof.merge ~into:s.prof r.prof

let quietly f =
  let result, sink = with_sink ~journal:false f in
  absorb sink;
  result

(* --- guarded instrumentation entry points --- *)

let incr ?by name =
  match active () with
  | None -> ()
  | Some s -> Metrics.incr ?by s.metrics name

let add name by = incr ~by name

let gauge name v =
  match active () with
  | None -> ()
  | Some s -> Metrics.set_gauge s.metrics name v

let observe name v =
  match active () with
  | None -> ()
  | Some s -> Metrics.observe s.metrics name v

let span name f =
  match active () with
  | None -> f ()
  | Some s ->
    (* The pre-enter depth is what finally unwinds to: that closes our
       frame AND any fine frame a raise inside [f] leaked, so one
       exception cannot skew every later attribution.  Close over the
       entered tree, not the global ref: [f] may swap the sink, and
       enter/exit must stay balanced regardless. *)
    let p = s.prof in
    let depth = Prof.depth p in
    Prof.enter_span p name;
    Fun.protect ~finally:(fun () -> Prof.unwind p ~depth) f

(* --- profiling entry points --- *)

(* Explicit enter/exit pairs, not a closure-taking wrapper: the ledger
   commit path calls these millions of times per 100k solve, and a
   closure would allocate even with profiling off.  Cost when off: one
   DLS read and a match, zero allocation (pinned by the disabled-sink
   audit in test_obs). *)

let profiling () =
  match active () with
  | None -> false
  | Some s -> Prof.profiling s.prof

let prof_enter name =
  match active () with
  | Some { prof; _ } when Prof.profiling prof -> Prof.enter prof name
  | _ -> ()

let prof_exit () =
  match active () with
  | Some { prof; _ } when Prof.profiling prof -> Prof.exit prof
  | _ -> ()

(* --- journal entry points --- *)

(* Engines guard event construction with [if Obs.decide d then ...]
   (or [if Obs.journaling () then ...] for events that count nothing):
   with no sink, or no journal, that costs one DLS read and a match.
   [decide] bumps through a top-level loop over a constant list, so it
   allocates no closure either. *)
let rec bump_each m = function
  | [] -> ()
  | name :: rest ->
    Metrics.incr m name;
    bump_each m rest

let decide d =
  match active () with
  | None -> false
  | Some s ->
    bump_each s.metrics (Journal.counters d);
    Journal.recording s.journal

let journaling () =
  match active () with
  | None -> false
  | Some s -> Journal.recording s.journal

let journal_depth () =
  match active () with
  | None -> Journal.default_depth
  | Some s -> Journal.depth s.journal

let event ev =
  match active () with
  | None -> ()
  | Some s -> Journal.record s.journal ev

let event_bounded ~category ev =
  match active () with
  | None -> ()
  | Some s -> Journal.record_bounded s.journal ~category ev
