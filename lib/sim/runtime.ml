module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects
module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers
module Alloc = Insp_mapping.Alloc
module Heap = Insp_util.Heap
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type report = {
  sim_time : float;
  results_completed : int;
  achieved_throughput : float;
  target_throughput : float;
  proc_busy : float array;
  download_delivered : float;
  download_ideal : float;
  events : int;
  root_completions : float array;
}

(* The analytic model is fluid; the packetized simulation adds pipeline
   fill and scheduling granularity, so allow a 5% margin. *)
let sustains_target r =
  r.achieved_throughput >= 0.95 *. r.target_throughput

type scope =
  | Proc_card of int
  | Server_card of int
  | Proc_link of int * int  (* undirected: hits both flow directions *)
  | Server_link of int * int  (* (server, processor) *)

type disruption = {
  d_scope : scope;
  d_from : float;
  d_until : float;
  d_factor : float;  (* multiplier on the nominal capacity, >= 0 *)
}

type event =
  | Compute_done of { op : int; result : int }
  | Download_due of int  (* index into the mapping's download list *)
  | Disrupt of { index : int; on : bool }

(* Per-fid flow payload, parallel arrays grown with the kernel's slots.
   [stream] is the stream a result message travels on, or -1 for an
   object download; [src] is then a processor or a server. *)
type flows = {
  mutable stream : int array;
  mutable src : int array;
  mutable dst : int array;  (* processor *)
  mutable remaining : float array;
}

let epsilon = 1e-9

let run_impl ?(horizon = 80.0) ?warmup ?(disruptions = []) g platform alloc =
  (* The pipeline needs enough results in flight to cover its depth in
     processor hops, otherwise the work-ahead bound (not a resource)
     throttles throughput. *)
  let window = max 8 (2 * Alloc.n_procs alloc) in
  let warmup = match warmup with Some w -> w | None -> horizon /. 4.0 in
  if warmup >= horizon then invalid_arg "Runtime.run: warmup >= horizon";
  let { Graph.roots; work; output; objects; _ } = g in
  let n_ops = Graph.n_nodes g in
  let n_procs = Alloc.n_procs alloc in
  let proc_of = Array.make n_ops (-1) in
  for i = 0 to n_ops - 1 do
    match Alloc.assignment alloc i with
    | Some u -> proc_of.(i) <- u
    | None -> invalid_arg "Runtime.run: unassigned operator"
  done;
  let speed u = (Alloc.proc alloc u).Alloc.config.Catalog.cpu.Catalog.speed in
  let nic u =
    (Alloc.proc alloc u).Alloc.config.Catalog.nic.Catalog.bandwidth
  in
  let servers = platform.Platform.servers in
  (* --- operator pipeline state --- *)
  let completed = Array.make n_ops (-1) in
  let duration = Array.init n_ops (fun i -> work.(i) /. speed proc_of.(i)) in
  let ops_of =
    Array.init n_procs (fun u -> Array.of_list (Alloc.operators_of alloc u))
  in
  (* Streams: a node's output travels once to each remote processor
     hosting one of its consumers, whatever the number of consumers
     there.  Stream ids are dense, grouped by producer
     ([first_stream.(p)] up to [first_stream.(p + 1)]) and ascending by
     destination within a producer; a tree node has at most one. *)
  let inputs =
    Array.init n_ops (fun j -> Array.of_list (Graph.producers g j))
  in
  let dests = Array.make n_ops [] in
  for j = 0 to n_ops - 1 do
    let v = proc_of.(j) and ins = inputs.(j) in
    for k = 0 to Array.length ins - 1 do
      let p = ins.(k) in
      if proc_of.(p) <> v && not (List.mem v dests.(p)) then
        dests.(p) <- v :: dests.(p)
    done
  done;
  let first_stream = Array.make (n_ops + 1) 0 in
  for p = 0 to n_ops - 1 do
    first_stream.(p + 1) <- first_stream.(p) + List.length dests.(p)
  done;
  let n_streams = first_stream.(n_ops) in
  let stream_src = Array.make n_streams 0 in
  let stream_dst = Array.make n_streams 0 in
  (* Plain loops: a closure per node would dominate the setup's
     allocation on large trees. *)
  let rec fill p s = function
    | [] -> ()
    | v :: rest ->
      (* insertion into the producer's ascending segment *)
      let i = ref s in
      while !i > first_stream.(p) && stream_dst.(!i - 1) > v do
        stream_dst.(!i) <- stream_dst.(!i - 1);
        decr i
      done;
      stream_dst.(!i) <- v;
      stream_src.(s) <- p;
      fill p (s + 1) rest
  in
  for p = 0 to n_ops - 1 do
    fill p first_stream.(p) dests.(p)
  done;
  (* arrived.(s) counts the results of stream [s] that have reached its
     destination; in_stream.(j).(k) is the stream feeding j's k-th
     input, or -1 when the producer is co-located. *)
  let arrived = Array.make n_streams 0 in
  let in_stream = Array.make n_ops [||] in
  for j = 0 to n_ops - 1 do
    let v = proc_of.(j) and ins = inputs.(j) in
    let ss = Array.make (Array.length ins) (-1) in
    for k = 0 to Array.length ins - 1 do
      let p = ins.(k) in
      if proc_of.(p) <> v then begin
        let s = ref first_stream.(p) in
        while stream_dst.(!s) <> v do
          incr s
        done;
        ss.(k) <- !s
      end
    done;
    in_stream.(j) <- ss
  done;
  let computing = Array.make n_procs false in
  let busy_until_accum = Array.make n_procs 0.0 in
  (* Every root is measured: the work-ahead window trails the slowest
     root ([root_floor], its last completed result) and the report
     takes the minimum over roots. *)
  let is_root = Array.make n_ops false in
  Array.iter (fun r -> is_root.(r) <- true) roots;
  let root_floor = ref (-1) in
  let after_warmup = Array.make n_ops 0 in
  let min_over_roots (count : int array) =
    let m = ref max_int in
    for i = 0 to Array.length roots - 1 do
      let c = count.(roots.(i)) in
      if c < !m then m := c
    done;
    !m
  in
  let root_times = ref [] in
  (* --- flows --- *)
  let fs = Fair_share_inc.create () in
  (* --- capacity disruptions (fault injection) ---
     Each disruption multiplies the nominal capacity of every matching
     constraint by [d_factor] over [d_from, d_until).  With an empty
     list the whole machinery is inert: no heap events, no factor
     application, bit-identical trajectories. *)
  let disr = Array.of_list disruptions in
  let n_disr = Array.length disr in
  Array.iter
    (fun d ->
      if d.d_factor < 0.0 then
        invalid_arg "Runtime.run: negative disruption factor";
      if d.d_until < d.d_from then
        invalid_arg "Runtime.run: disruption ends before it starts")
    disr;
  let disr_active = Array.make (max 1 n_disr) false in
  (* [key] names one registered constraint; its [Proc_link] is the
     directed (sender, receiver) link. *)
  let scope_matches scope key =
    match (scope, key) with
    | Proc_card u, Proc_card v -> u = v
    | Server_card l, Server_card m -> l = m
    | Proc_link (a, b), Proc_link (u, v) -> (a = u && b = v) || (a = v && b = u)
    | Server_link (l, p), Server_link (m, q) -> l = m && p = q
    | _ -> false
  in
  let eff_factor key =
    let f = ref 1.0 in
    for i = 0 to n_disr - 1 do
      if disr_active.(i) && scope_matches disr.(i).d_scope key then
        f := !f *. disr.(i).d_factor
    done;
    !f
  in
  (* Constraints: proc cards (in+out), server cards, pair links.
     Registered once, on the first flow that crosses them, and resolved
     through dense per-processor and per-server tables.  Links go
     through a table keyed by their flat pair index: a dense pair table
     would grow with the square of the processor count, and the table
     is only consulted when a stream or download first resolves its
     route.  With live disruptions the registration list is kept (in
     registration order, most recent first) so boundary events can
     re-derive every affected effective capacity from the nominal one —
     no drift from repeated multiply/divide. *)
  let registered = ref [] in
  let register key cap =
    let eff = if n_disr = 0 then cap else cap *. eff_factor key in
    let cid = Fair_share_inc.add_constraint fs eff in
    if n_disr > 0 then registered := (key, cap, cid) :: !registered;
    cid
  in
  let proc_card = Array.make n_procs (-1) in
  let server_card = Array.make (Servers.n_servers servers) (-1) in
  let links = Hashtbl.create 16 in
  let proc_card_of u =
    if proc_card.(u) < 0 then proc_card.(u) <- register (Proc_card u) (nic u);
    proc_card.(u)
  in
  let server_card_of l =
    if server_card.(l) < 0 then
      server_card.(l) <- register (Server_card l) (Servers.card servers l);
    server_card.(l)
  in
  (* One route per link, [| src card; dst card; link |], built on the
     first flow along it and shared by every later one: all streams
     between two processors and all downloads from one server to one
     processor.  [links] maps the link's flat pair index to the route
     id.  The card [let]s below fix the registration order: destination
     card, source card, then the link on its first flow.  Streams and
     downloads cache their route id, so the table is consulted once per
     stream or download. *)
  let route_of key index src_card dst_card cap =
    match Hashtbl.find_opt links index with
    | Some rid -> rid
    | None ->
      let rid =
        Fair_share_inc.add_route fs [| src_card; dst_card; register key cap |]
      in
      Hashtbl.replace links index rid;
      rid
  in
  let msg_route = Array.make n_streams (-1) in
  let message_route s =
    if msg_route.(s) < 0 then begin
      let u = proc_of.(stream_src.(s)) and v = stream_dst.(s) in
      let dst_card = proc_card_of v in
      let src_card = proc_card_of u in
      msg_route.(s) <-
        route_of (Proc_link (u, v)) ((u * n_procs) + v) src_card dst_card
          platform.Platform.proc_link
    end;
    msg_route.(s)
  in
  let downloads = Array.of_list (Alloc.all_downloads alloc) in
  let dl_route = Array.make (Array.length downloads) (-1) in
  let download_route d =
    if dl_route.(d) < 0 then begin
      let u, _, l = downloads.(d) in
      let dst_card = proc_card_of u in
      let src_card = server_card_of l in
      dl_route.(d) <-
        route_of (Server_link (l, u))
          (-1 - ((l * n_procs) + u))
          src_card dst_card platform.Platform.server_link
    end;
    dl_route.(d)
  in
  let fl =
    {
      stream = Array.make 16 0;
      src = Array.make 16 0;
      dst = Array.make 16 0;
      remaining = Array.make 16 0.0;
    }
  in
  let events = Heap.create () in
  let n_events = ref 0 in
  let download_delivered = ref 0.0 in
  (* Hot-loop instrumentation goes through local refs and is flushed to
     the observability sink once per run, so the event loop never pays
     more than integer increments. *)
  let n_recomputes = ref 0 in
  let n_flows_started = ref 0 in
  let n_flows_completed = ref 0 in
  (* Rates are refreshed lazily: flow arrivals/departures only mark
     them dirty, and the water-filling kernel runs once per loop
     iteration that actually reads rates.  Bursts of same-instant
     events (periodic downloads firing together, completions cascading
     at one timestamp) then share a single recompute instead of paying
     one each — the dominant cost of a run (see DESIGN.md §11). *)
  let rates_dirty = ref false in
  (* Active flows with [remaining <= epsilon].  Only such flows can
     complete "now", so when the list is empty a heap event due at the
     current instant can be processed without consulting rates at all.
     Flows are recorded as they cross the threshold, so the completion
     branch needs no rescan of the active set. *)
  let tiny = ref (Array.make 16 0) in
  let n_tiny = ref 0 in
  let push_tiny fid =
    if !n_tiny >= Array.length !tiny then begin
      let b = Array.make (2 * Array.length !tiny) 0 in
      Array.blit !tiny 0 b 0 !n_tiny;
      tiny := b
    end;
    !tiny.(!n_tiny) <- fid;
    incr n_tiny
  in
  (* Scheduling events are journaled only when a journaling sink is
     installed; the flag is read once so the hot loop pays a single
     boolean test per candidate site.  The "sim" category is depth
     bounded (--journal-depth): only the opening of a run is recorded. *)
  let jn = Obs.journaling () in
  let now = ref 0.0 in
  let flow_labels stream src =
    if stream >= 0 then ("msg", Printf.sprintf "p%d" src)
    else ("dl", Printf.sprintf "s%d" src)
  in
  let start_flow ~stream ~src ~dst ~size rid =
    incr n_flows_started;
    if jn then begin
      let kind, src = flow_labels stream src in
      Obs.event_bounded ~category:"sim"
        (Journal.Sim_flow_start { t = !now; kind; src; dst; size })
    end;
    rates_dirty := true;
    let fid = Fair_share_inc.add_flow fs rid in
    if fid >= Array.length fl.remaining then begin
      let n = 2 * Array.length fl.remaining in
      let grow a v =
        let b = Array.make n v in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      fl.stream <- grow fl.stream 0;
      fl.src <- grow fl.src 0;
      fl.dst <- grow fl.dst 0;
      fl.remaining <- grow fl.remaining 0.0
    end;
    fl.stream.(fid) <- stream;
    fl.src.(fid) <- src;
    fl.dst.(fid) <- dst;
    fl.remaining.(fid) <- size;
    if size <= epsilon then push_tiny fid
  in
  let recompute_rates () =
    incr n_recomputes;
    Fair_share_inc.refresh fs
  in
  (* --- pipeline readiness --- *)
  let ready op =
    let t = completed.(op) + 1 in
    t <= !root_floor + window
    &&
    let ins = inputs.(op) and ss = in_stream.(op) in
    let ok = ref true and k = ref 0 in
    while !ok && !k < Array.length ins do
      let s = ss.(!k) in
      (ok := if s < 0 then completed.(ins.(!k)) >= t else arrived.(s) > t);
      incr k
    done;
    !ok
  in
  let dispatch () =
    (* Start an evaluation on every idle processor that has a ready
       operator (lowest pending result first, then operator id). *)
    for u = 0 to n_procs - 1 do
      if not computing.(u) then begin
        let best = ref (-1) in
        let ops = ops_of.(u) in
        for j = 0 to Array.length ops - 1 do
          let op = ops.(j) in
          if
            ready op
            && (!best < 0
               || completed.(op) < completed.(!best)
               || (completed.(op) = completed.(!best) && op < !best))
          then best := op
        done;
        let op = !best in
        if op >= 0 then begin
          computing.(u) <- true;
          if jn then
            Obs.event_bounded ~category:"sim"
              (Journal.Sim_dispatch
                 { t = !now; proc = u; op; result = completed.(op) + 1 });
          busy_until_accum.(u) <- busy_until_accum.(u) +. duration.(op);
          Heap.push events (!now +. duration.(op))
            (Compute_done { op; result = completed.(op) + 1 })
        end
      end
    done
  in
  let finish_compute op result =
    completed.(op) <- result;
    computing.(proc_of.(op)) <- false;
    if is_root.(op) then begin
      root_floor := min_over_roots completed;
      root_times := !now :: !root_times;
      if !now >= warmup then after_warmup.(op) <- after_warmup.(op) + 1
    end;
    for s = first_stream.(op) to first_stream.(op + 1) - 1 do
      start_flow ~stream:s ~src:proc_of.(op) ~dst:stream_dst.(s)
        ~size:output.(op) (message_route s)
    done
  in
  (* Set when a finished Message flow bumped an arrival count — the
     only way a flow completion can make an operator ready.  Download
     completions leave readiness untouched, so an all-download batch
     can skip the dispatch scan: every readiness mutation elsewhere is
     already followed by its own [dispatch ()], meaning the scan would
     find nothing to start. *)
  let arrival_bumped = ref false in
  let finish_flow fid =
    let s = fl.stream.(fid) in
    if s >= 0 then begin
      arrived.(s) <- arrived.(s) + 1;
      arrival_bumped := true
    end;
    incr n_flows_completed;
    if jn then begin
      let kind, src = flow_labels s fl.src.(fid) in
      Obs.event_bounded ~category:"sim"
        (Journal.Sim_flow_done { t = !now; kind; src; dst = fl.dst.(fid) })
    end;
    rates_dirty := true;
    Fair_share_inc.remove_flow fs fid
  in
  (* Seed periodic downloads. *)
  Array.iteri (fun d _ -> Heap.push events 0.0 (Download_due d)) downloads;
  dispatch ();
  let handle_event = function
    | Compute_done { op; result } ->
      finish_compute op result;
      dispatch ()
    | Download_due d ->
      let proc, object_type, server = downloads.(d) in
      let size = Objects.size objects object_type in
      let freq = Objects.freq objects object_type in
      start_flow ~stream:(-1) ~src:server ~dst:proc ~size (download_route d);
      Heap.push events (!now +. (1.0 /. freq)) (Download_due d)
      (* No dispatch: starting a download cannot make an operator
         ready, so the scan would be a guaranteed no-op. *)
    | Disrupt { index; on } ->
      (* Toggle the window and re-derive every matching constraint's
         effective capacity from its nominal value.  Marking rates
         dirty is enough: the slow path refreshes (and invalidates the
         completion-time cache) before any rate is read again. *)
      disr_active.(index) <- on;
      List.iter
        (fun (key, nominal, cid) ->
          if scope_matches disr.(index).d_scope key then
            Fair_share_inc.set_capacity fs cid (nominal *. eff_factor key))
        !registered;
      rates_dirty := true
  in
  (* Schedule disruption boundaries.  Windows opening at or past the
     horizon never fire; a close past the horizon is simply never
     processed. *)
  for i = 0 to n_disr - 1 do
    if disr.(i).d_from < horizon then begin
      Heap.push events disr.(i).d_from (Disrupt { index = i; on = true });
      Heap.push events disr.(i).d_until (Disrupt { index = i; on = false })
    end
  done;
  (* --- main loop ---
     The two per-step passes over the active flows are plain loops over
     the kernel's read-only rate/route/activity views and the local
     payload arrays: no per-flow call or closure crosses a module
     boundary. *)
  let t_flow_cache = ref infinity in
  let t_flow_valid = ref false in
  let continue_ = ref true in
  while !continue_ do
    let t_heap = match Heap.peek events with Some (t, _) -> t | None -> infinity in
    if t_heap <= !now && !now < horizon && !n_tiny = 0 then begin
      (* Fast path: a heap event is due at the current instant and no
         flow can complete before it (a completion "now" requires an
         active flow with [remaining <= epsilon], and there is none).
         Time does not advance, so no rate is read — process the event
         without refreshing.  This collapses a burst of same-instant
         events into a single deferred recompute at the next real read,
         with bit-identical trajectories: the slow path below would
         take its heap branch with dt = 0 for each of them anyway. *)
      incr n_events;
      match Heap.pop events with
      | None -> assert false (* t_heap is finite, so the heap is non-empty *)
      | Some (_, ev) -> handle_event ev
    end
    else begin
      if !rates_dirty then begin
        rates_dirty := false;
        recompute_rates ();
        (* Rates moved under the cached prediction's feet. *)
        t_flow_valid := false
      end;
      let n_slots = Fair_share_inc.n_slots fs in
      let rates = Fair_share_inc.rates_view fs in
      let active = Fair_share_inc.active_view fs in
      let route = Fair_share_inc.route_view fs in
      let remaining = fl.remaining in
      (* Next flow completion.  [now +. (remaining /. r)] depends only
         on each flow's rate and residual size, both unchanged since
         the advance pass that cached it (any start/finish or refresh
         cleared the flag), so reuse is bit-exact and the scan is
         skipped on iterations whose rates stayed clean. *)
      let t_flow =
        if !t_flow_valid then !t_flow_cache
        else begin
          let tf = ref infinity in
          for fid = 0 to n_slots - 1 do
            if active.(fid) then begin
              let r = rates.(route.(fid)) in
              if r > epsilon then
                tf := Float.min !tf (!now +. (remaining.(fid) /. r))
            end
          done;
          !tf
        end
      in
      let t_next = Float.min horizon (Float.min t_heap t_flow) in
      (* Advance all flows to t_next, predicting the next completion
         time as a side product: with [now] about to become [t_next],
         the candidate below is the same float expression the scan
         above would evaluate next iteration. *)
      let dt = t_next -. !now in
      if dt > 0.0 then begin
        let tf = ref infinity in
        let delivered = ref !download_delivered in
        let stream = fl.stream in
        for fid = 0 to n_slots - 1 do
          if active.(fid) then begin
            let r = rates.(route.(fid)) in
            let before = remaining.(fid) in
            let moved = Float.min before (r *. dt) in
            let after = before -. moved in
            remaining.(fid) <- after;
            if before > epsilon && after <= epsilon then push_tiny fid;
            if r > epsilon then tf := Float.min !tf (t_next +. (after /. r));
            if stream.(fid) < 0 then delivered := !delivered +. moved
          end
        done;
        download_delivered := !delivered;
        t_flow_cache := !tf;
        t_flow_valid := true
      end;
      now := t_next;
      if t_next >= horizon then continue_ := false
      else if t_flow <= t_heap then begin
        (* One or more flows completed.  The tiny list holds exactly
           the active flows with [remaining <= epsilon] (a flow crosses
           the threshold once and is only ever removed here), so no
           rescan is needed — just finish them in ascending fid order,
           the order the scan this replaces used to yield. *)
        incr n_events;
        let k = !n_tiny in
        let a = !tiny in
        for i = 1 to k - 1 do
          let v = a.(i) in
          let j = ref i in
          while !j > 0 && a.(!j - 1) > v do
            a.(!j) <- a.(!j - 1);
            decr j
          done;
          a.(!j) <- v
        done;
        n_tiny := 0;
        arrival_bumped := false;
        for i = 0 to k - 1 do
          finish_flow a.(i)
        done;
        if !arrival_bumped then dispatch ()
      end
      else begin
        incr n_events;
        match Heap.pop events with
        | None -> continue_ := false
        | Some (_, ev) -> handle_event ev
      end
    end
  done;
  (* --- measurement --- *)
  let achieved =
    float_of_int (min_over_roots after_warmup) /. (horizon -. warmup)
  in
  let ideal =
    Array.fold_left
      (fun acc (_, k, _) -> acc +. (Objects.rate objects k *. horizon))
      0.0 downloads
  in
  let report =
    {
      sim_time = horizon;
      results_completed = !root_floor + 1;
      achieved_throughput = achieved;
      target_throughput = g.Graph.rates.(roots.(0) * g.Graph.rate_stride);
      proc_busy =
        Array.map (fun b -> Float.min 1.0 (b /. horizon)) busy_until_accum;
      download_delivered = !download_delivered;
      download_ideal = ideal;
      events = !n_events;
      root_completions = Array.of_list (List.rev !root_times);
    }
  in
  Obs.add "sim.event" !n_events;
  Obs.add "sim.rate_recompute" !n_recomputes;
  Obs.add "sim.flow.started" !n_flows_started;
  Obs.add "sim.flow.completed" !n_flows_completed;
  Obs.add "sim.result" report.results_completed;
  let ks = Fair_share_inc.stats fs in
  Obs.add "sim.component.recompute" ks.Fair_share_inc.components_recomputed;
  Obs.add "sim.component.route" ks.Fair_share_inc.routes_recomputed;
  Obs.add "sim.component.flow" ks.Fair_share_inc.flows_recomputed;
  Obs.add "sim.component.round" ks.Fair_share_inc.rounds;
  Obs.gauge "sim.throughput.achieved" report.achieved_throughput;
  let busy = report.proc_busy in
  if Array.length busy > 0 then begin
    Obs.gauge "sim.busy.max" (Array.fold_left Float.max 0.0 busy);
    Obs.gauge "sim.busy.mean"
      (Array.fold_left ( +. ) 0.0 busy /. float_of_int (Array.length busy))
  end;
  report

let run_graph ?horizon ?warmup ?disruptions g platform alloc =
  Obs.span "sim.run" (fun () ->
      run_impl ?horizon ?warmup ?disruptions g platform alloc)

let run ?horizon ?warmup ?disruptions app platform alloc =
  run_graph ?horizon ?warmup ?disruptions (Graph.of_app app) platform alloc

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>simulated %.1f s, %d events@ root results: %d (%.3f/s vs target \
     %.3f/s)@ downloads: %.0f / %.0f MB delivered@ busy: [%s]@]"
    r.sim_time r.events r.results_completed r.achieved_throughput
    r.target_throughput r.download_delivered r.download_ideal
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.2f") r.proc_busy)))
