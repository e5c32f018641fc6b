(* Deterministic decision journal — the third pillar of the
   observability sink beside metrics and spans (DESIGN.md §12).

   Where metrics answer "how much" and spans answer "where did the time
   go", the journal answers "which processors did the heuristic buy and
   WHY": every allocation decision is recorded as a typed event in
   program order, then serialized to canonical JSONL (fixed field
   order, canonical floats via Jsonc, no wall-clock, no hash-order
   iteration).  Two runs of the same deterministic computation produce
   byte-identical journals — `journal verify` pins that, and
   `journal diff` turns any divergence into the first differing
   decision.

   Hot event categories (DES scheduling, LP branching) are bounded by a
   per-journal [depth] so a journal of a long simulation stays
   proportional to the interesting prefix; the cutoff is marked with a
   [Truncated] event and is itself deterministic. *)

type manifest = {
  m_seed : int;
  m_config_hash : string;
  m_heuristic : string;
  m_args : (string * string) list;  (* CLI args, in flag order *)
}

type reject = Demand_exceeded | Link_exceeded | No_config

type probe_kind = Host | Catalog_scan

type event =
  | Phase of { heuristic : string; stage : string }
  | Probe of {
      kind : probe_kind;
      ops : int list;
      ok : bool;
      reject : reject option;
    }
  | Acquire of { gid : int; config : string; members : int list }
  | Add_op of { gid : int; op : int; upgrade : string option }
  | Reject_add of { gid : int; op : int; reject : reject }
  | Merge_groups of { winner : int; loser : int; upgrade : string option }
  | Reject_merge of { winner : int; loser : int; reject : reject }
  | Sell of { gid : int }
  | Download of {
      group : int;
      object_type : int;
      server : int;
      rule : string;
      candidates : int list;
    }
  | Download_failed of { object_type : int; group : int option; reason : string }
  | Downgrade of { proc : int; from_config : string; to_config : string }
  | Downgrade_stuck of { proc : int; config : string }
  | Outcome of {
      heuristic : string;
      status : string;
      cost : float option;
      n_procs : int option;
      procs : (int * int) list;  (* final processor index -> builder gid *)
    }
  | Exact_incumbent of { n_procs : int; nodes : int }
  | Sim_dispatch of { t : float; proc : int; op : int; result : int }
  | Sim_flow_start of {
      t : float;
      kind : string;
      src : string;
      dst : int;
      size : float;
    }
  | Sim_flow_done of { t : float; kind : string; src : string; dst : int }
  | Serve_arrival of { app : int; tenant : int; ops : int; t : int }
  | Serve_admit of { app : int; tenant : int; cost : float; n_procs : int }
  | Serve_reject of { app : int; tenant : int; reason : string }
  | Serve_depart of { app : int; tenant : int; refund : float }
  | Serve_unknown_depart of { app : int; t : int }
  | Fault_crash of { t : float; victim : int }
  | Fault_capacity of {
      t : float;
      scope : string;
      factor : float;
      duration : float;
    }
  | Fault_rho of { t : float; factor : float; rho : float }
  | Repair_migrate of { op : int; from_proc : int; to_group : int }
  | Repair_rebuy of { group : int; config : string; ops : int list }
  | Repair_done of {
      t : float;
      cost : float;
      migrations : int;
      rebuys : int;
      downtime : float;
    }
  | Repair_infeasible of { t : float; reason : string }
  | Truncated of { category : string }

type decision =
  | Probe_ok | Probe_rejected | Acquired | Added | Add_rejected | Merged
  | Merge_rejected | Sold | Stuck | Solved | Solve_failed | Crashed
  | Rho_shifted | Capacity_changed | Arrived | Admitted | Rejected_placement
  | Rejected_proc_budget | Rejected_ledger | Departed | Departed_unknown

(* Constant lists: returning one allocates nothing.  A probe's verdict
   comes before the add/merge outcome it decides. *)
let counters = function
  | Probe_ok -> [ "heur.probe"; "heur.probe.hit" ]
  | Probe_rejected -> [ "heur.probe"; "heur.probe.miss" ]
  | Acquired -> [ "heur.acquire" ]
  | Added -> [ "heur.probe"; "heur.probe.hit"; "heur.try_add.ok" ]
  | Add_rejected -> [ "heur.probe"; "heur.probe.miss"; "heur.try_add.reject" ]
  | Merged -> [ "heur.probe"; "heur.probe.hit"; "heur.absorb.ok" ]
  | Merge_rejected -> [ "heur.probe"; "heur.probe.miss"; "heur.absorb.reject" ]
  | Sold -> [ "heur.sell" ]
  | Stuck -> [ "heur.downgrade.stuck" ]
  | Solved -> [ "heur.solve.ok" ]
  | Solve_failed -> [ "heur.solve.fail" ]
  | Crashed -> [ "faults.crash" ]
  | Rho_shifted -> [ "faults.rho" ]
  | Capacity_changed -> [ "faults.capacity" ]
  | Arrived -> [ "serve.arrival" ]
  | Admitted -> [ "serve.admit" ]
  | Rejected_placement -> [ "serve.reject"; "serve.reject.placement" ]
  | Rejected_proc_budget -> [ "serve.reject"; "serve.reject.proc_budget" ]
  | Rejected_ledger -> [ "serve.reject"; "serve.reject.ledger" ]
  | Departed -> [ "serve.depart" ]
  | Departed_unknown -> [ "serve.depart.unknown" ]

type t = {
  mutable on : bool;
  mutable depth : int;
  mutable events : event list;  (* record order, reversed *)
  mutable n_events : int;
  mutable manifest : manifest option;
  mutable bounded : (string * int) list;  (* per-category event counts *)
}

let default_depth = 200

let create () =
  { on = false; depth = default_depth; events = []; n_events = 0; manifest = None;
    bounded = [] }

let recording t = t.on

let depth t = t.depth

let enable ?depth t =
  (match depth with Some d -> t.depth <- max 0 d | None -> ());
  t.on <- true

let set_manifest t m = t.manifest <- Some m

let record t ev =
  if t.on then begin
    t.events <- ev :: t.events;
    t.n_events <- t.n_events + 1
  end

let record_bounded t ~category ev =
  if t.on then begin
    let seen =
      match List.assoc_opt category t.bounded with Some n -> n | None -> 0
    in
    if seen < t.depth then begin
      t.bounded <- (category, seen + 1) :: List.remove_assoc category t.bounded;
      record t ev
    end
    else if seen = t.depth then begin
      t.bounded <- (category, seen + 1) :: List.remove_assoc category t.bounded;
      record t (Truncated { category })
    end
  end

let events t = List.rev t.events

let length t = t.n_events

(* Appends [src]'s events after [into]'s, preserving both orders.  The
   caller (Obs.absorb via Par_sweep) invokes this in canonical cell
   order, which is exactly what makes a --jobs N merged journal
   byte-identical to the sequential one. *)
let merge ~into src =
  into.events <- List.rev_append (List.rev src.events) into.events;
  into.n_events <- into.n_events + src.n_events;
  List.iter
    (fun (cat, n) ->
      let prev =
        match List.assoc_opt cat into.bounded with Some p -> p | None -> 0
      in
      into.bounded <- (cat, prev + n) :: List.remove_assoc cat into.bounded)
    src.bounded;
  match into.manifest with
  | Some _ -> ()
  | None -> into.manifest <- src.manifest

(* ------------------------------------------------------------------ *)
(* Canonical JSONL serialization                                       *)

let reject_label = function
  | Demand_exceeded -> "demand"
  | Link_exceeded -> "link"
  | No_config -> "no_config"

let probe_kind_label = function Host -> "host" | Catalog_scan -> "catalog"

let opt_field name render = function
  | None -> []
  | Some v -> [ (name, render v) ]

let manifest_to_json m =
  Jsonc.obj
    [
      ("ev", Jsonc.string "manifest");
      ("seed", Jsonc.int m.m_seed);
      ("config", Jsonc.string m.m_config_hash);
      ("heuristic", Jsonc.string m.m_heuristic);
      ( "args",
        Jsonc.obj (List.map (fun (k, v) -> (k, Jsonc.string v)) m.m_args) );
    ]

let event_to_json ev =
  let tag name fields = Jsonc.obj (("ev", Jsonc.string name) :: fields) in
  match ev with
  | Phase { heuristic; stage } ->
    tag "phase"
      [ ("heuristic", Jsonc.string heuristic); ("stage", Jsonc.string stage) ]
  | Probe { kind; ops; ok; reject } ->
    tag "probe"
      ([
         ("kind", Jsonc.string (probe_kind_label kind));
         ("ops", Jsonc.int_list ops);
         ("ok", Jsonc.bool ok);
       ]
      @ opt_field "reject" (fun r -> Jsonc.string (reject_label r)) reject)
  | Acquire { gid; config; members } ->
    tag "acquire"
      [
        ("gid", Jsonc.int gid);
        ("config", Jsonc.string config);
        ("members", Jsonc.int_list members);
      ]
  | Add_op { gid; op; upgrade } ->
    tag "add"
      ([ ("gid", Jsonc.int gid); ("op", Jsonc.int op) ]
      @ opt_field "upgrade" Jsonc.string upgrade)
  | Reject_add { gid; op; reject } ->
    tag "reject_add"
      [
        ("gid", Jsonc.int gid);
        ("op", Jsonc.int op);
        ("reject", Jsonc.string (reject_label reject));
      ]
  | Merge_groups { winner; loser; upgrade } ->
    tag "merge"
      ([ ("winner", Jsonc.int winner); ("loser", Jsonc.int loser) ]
      @ opt_field "upgrade" Jsonc.string upgrade)
  | Reject_merge { winner; loser; reject } ->
    tag "reject_merge"
      [
        ("winner", Jsonc.int winner);
        ("loser", Jsonc.int loser);
        ("reject", Jsonc.string (reject_label reject));
      ]
  | Sell { gid } -> tag "sell" [ ("gid", Jsonc.int gid) ]
  | Download { group; object_type; server; rule; candidates } ->
    tag "download"
      [
        ("group", Jsonc.int group);
        ("object", Jsonc.int object_type);
        ("server", Jsonc.int server);
        ("rule", Jsonc.string rule);
        ("candidates", Jsonc.int_list candidates);
      ]
  | Download_failed { object_type; group; reason } ->
    tag "download_failed"
      (("object", Jsonc.int object_type)
       :: (opt_field "group" Jsonc.int group
          @ [ ("reason", Jsonc.string reason) ]))
  | Downgrade { proc; from_config; to_config } ->
    tag "downgrade"
      [
        ("proc", Jsonc.int proc);
        ("from", Jsonc.string from_config);
        ("to", Jsonc.string to_config);
      ]
  | Downgrade_stuck { proc; config } ->
    tag "downgrade_stuck"
      [ ("proc", Jsonc.int proc); ("config", Jsonc.string config) ]
  | Outcome { heuristic; status; cost; n_procs; procs } ->
    tag "outcome"
      ([
         ("heuristic", Jsonc.string heuristic);
         ("status", Jsonc.string status);
       ]
      @ opt_field "cost" Jsonc.float cost
      @ opt_field "procs" Jsonc.int n_procs
      @ [
          ( "groups",
            "["
            ^ String.concat ","
                (List.map
                   (fun (p, g) -> Printf.sprintf "[%d,%d]" p g)
                   procs)
            ^ "]" );
        ])
  | Exact_incumbent { n_procs; nodes } ->
    tag "exact_incumbent"
      [ ("procs", Jsonc.int n_procs); ("nodes", Jsonc.int nodes) ]
  | Sim_dispatch { t; proc; op; result } ->
    tag "sim_dispatch"
      [
        ("t", Jsonc.float t);
        ("proc", Jsonc.int proc);
        ("op", Jsonc.int op);
        ("result", Jsonc.int result);
      ]
  | Sim_flow_start { t; kind; src; dst; size } ->
    tag "sim_flow"
      [
        ("t", Jsonc.float t);
        ("kind", Jsonc.string kind);
        ("src", Jsonc.string src);
        ("dst", Jsonc.int dst);
        ("size", Jsonc.float size);
      ]
  | Sim_flow_done { t; kind; src; dst } ->
    tag "sim_flow_done"
      [
        ("t", Jsonc.float t);
        ("kind", Jsonc.string kind);
        ("src", Jsonc.string src);
        ("dst", Jsonc.int dst);
      ]
  | Serve_arrival { app; tenant; ops; t } ->
    tag "serve_arrival"
      [
        ("app", Jsonc.int app);
        ("tenant", Jsonc.int tenant);
        ("ops", Jsonc.int ops);
        ("t", Jsonc.int t);
      ]
  | Serve_admit { app; tenant; cost; n_procs } ->
    tag "serve_admit"
      [
        ("app", Jsonc.int app);
        ("tenant", Jsonc.int tenant);
        ("cost", Jsonc.float cost);
        ("procs", Jsonc.int n_procs);
      ]
  | Serve_reject { app; tenant; reason } ->
    tag "serve_reject"
      [
        ("app", Jsonc.int app);
        ("tenant", Jsonc.int tenant);
        ("reason", Jsonc.string reason);
      ]
  | Serve_depart { app; tenant; refund } ->
    tag "serve_depart"
      [
        ("app", Jsonc.int app);
        ("tenant", Jsonc.int tenant);
        ("refund", Jsonc.float refund);
      ]
  | Serve_unknown_depart { app; t } ->
    tag "serve_unknown_depart" [ ("app", Jsonc.int app); ("t", Jsonc.int t) ]
  | Fault_crash { t; victim } ->
    tag "fault_crash" [ ("t", Jsonc.float t); ("victim", Jsonc.int victim) ]
  | Fault_capacity { t; scope; factor; duration } ->
    tag "fault_capacity"
      [
        ("t", Jsonc.float t);
        ("scope", Jsonc.string scope);
        ("factor", Jsonc.float factor);
        ("duration", Jsonc.float duration);
      ]
  | Fault_rho { t; factor; rho } ->
    tag "fault_rho"
      [
        ("t", Jsonc.float t);
        ("factor", Jsonc.float factor);
        ("rho", Jsonc.float rho);
      ]
  | Repair_migrate { op; from_proc; to_group } ->
    tag "repair_migrate"
      [
        ("op", Jsonc.int op);
        ("from", Jsonc.int from_proc);
        ("to", Jsonc.int to_group);
      ]
  | Repair_rebuy { group; config; ops } ->
    tag "repair_rebuy"
      [
        ("group", Jsonc.int group);
        ("config", Jsonc.string config);
        ("ops", Jsonc.int_list ops);
      ]
  | Repair_done { t; cost; migrations; rebuys; downtime } ->
    tag "repair_done"
      [
        ("t", Jsonc.float t);
        ("cost", Jsonc.float cost);
        ("migrations", Jsonc.int migrations);
        ("rebuys", Jsonc.int rebuys);
        ("downtime", Jsonc.float downtime);
      ]
  | Repair_infeasible { t; reason } ->
    tag "repair_infeasible"
      [ ("t", Jsonc.float t); ("reason", Jsonc.string reason) ]
  | Truncated { category } ->
    tag "truncated" [ ("category", Jsonc.string category) ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  (match t.manifest with
  | Some m ->
    Buffer.add_string buf (manifest_to_json m);
    Buffer.add_char buf '\n'
  | None -> ());
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_to_json ev);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Run manifests                                                       *)

(* FNV-1a 64 over a canonical configuration rendering: collision
   resistance is irrelevant here — the hash only has to change when the
   configuration does, and be stable when it does not. *)
let hash_hex s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "fnv1a:%016Lx" !h

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)

type divergence = {
  div_line : int;  (* 1-based line number of the first difference *)
  div_left : string option;  (* [None]: this side ended first *)
  div_right : string option;
  div_context : string list;  (* common lines immediately preceding *)
}

let split_lines s =
  (* A trailing newline does not create a phantom empty last line. *)
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '\n' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  if s = "" then [] else String.split_on_char '\n' s

let diff ?(context = 3) a b =
  let la = split_lines a and lb = split_lines b in
  let rec go n recent la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la', y :: lb' when String.equal x y ->
      let recent = x :: (if List.length recent >= context
                         then List.filteri (fun i _ -> i < context - 1) recent
                         else recent) in
      go (n + 1) recent la' lb'
    | _ ->
      let head = function [] -> None | x :: _ -> Some x in
      Some
        {
          div_line = n;
          div_left = head la;
          div_right = head lb;
          div_context = List.rev recent;
        }
  in
  go 1 [] la lb

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)

(* Decision chain behind one final processor: resolve the processor
   index to its builder group id through the Outcome mapping, close the
   gid set under merges (scanning backwards, so a loser absorbed into a
   tracked winner is tracked from its own acquisition onwards), then
   keep every event that touches the set — plus the per-processor
   events of the later pipeline stages (server selection, downgrade),
   which are indexed by final processor position. *)
let explain ~proc evs =
  let outcome =
    List.find_opt (function Outcome _ -> true | _ -> false) evs
  in
  match outcome with
  | Some (Outcome { procs; _ }) -> (
    match List.assoc_opt proc procs with
    | None -> []
    | Some gid0 ->
      let gids = Hashtbl.create 8 in
      Hashtbl.replace gids gid0 ();
      List.iter
        (function
          | Merge_groups { winner; loser; _ } when Hashtbl.mem gids winner ->
            Hashtbl.replace gids loser ()
          | _ -> ())
        (List.rev evs);
      let tracked g = Hashtbl.mem gids g in
      List.filter
        (fun ev ->
          match ev with
          | Acquire { gid; _ }
          | Add_op { gid; _ }
          | Reject_add { gid; _ }
          | Sell { gid } ->
            tracked gid
          | Merge_groups { winner; loser; _ }
          | Reject_merge { winner; loser; _ } ->
            tracked winner || tracked loser
          | Download { group; _ } -> group = proc
          | Download_failed { group = Some g; _ } -> g = proc
          | Downgrade { proc = p; _ } | Downgrade_stuck { proc = p; _ } ->
            p = proc
          | Outcome _ -> true
          | _ -> false)
        evs)
  | Some _ | None -> []
