(** Deterministic decision journal (DESIGN.md §12).

    The third pillar of the observability sink beside {!Metrics} and
    {!Prof}: a typed, ordered log of every allocation decision —
    processor purchases, upgrades, merges, downgrades, feasibility probe
    verdicts with rejection reasons, download-plan choices, LP
    branch-and-bound steps and (depth-bounded) DES scheduling events.

    Determinism contract: every recorded field is a pure function of the
    run's inputs (instance, platform, seed, heuristic).  No wall-clock,
    no hash-order iteration, no ambiguous float formatting ({!Jsonc}
    renders canonically) — so {!to_jsonl} of two runs of the same
    deterministic computation is byte-identical, which is what
    [journal verify] pins and what makes [journal diff] meaningful. *)

type manifest = {
  m_seed : int;
  m_config_hash : string;  (** {!hash_hex} of the canonical config rendering *)
  m_heuristic : string;
  m_args : (string * string) list;  (** CLI args, in flag order *)
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
  | Reconfig of { gid : int; config : string }
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
      procs : (int * int) list;
          (** final processor index -> builder group id *)
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
      (** application [app] of [tenant] arrives at logical time [t] *)
  | Serve_admit of { app : int; tenant : int; cost : float; n_procs : int }
  | Serve_reject of { app : int; tenant : int; reason : string }
  | Serve_depart of { app : int; tenant : int; refund : float }
  | Serve_unknown_depart of { app : int; t : int }
      (** malformed stream: departure of a never-seen application *)
  | Fault_crash of { t : float; victim : int }
      (** processor [victim] of the current allocation fails at [t] *)
  | Fault_capacity of {
      t : float;
      scope : string;  (** canonical scope label, e.g. ["plink:2-3"] *)
      factor : float;
      duration : float;
    }  (** link degradation, server outage or card jitter window *)
  | Fault_rho of { t : float; factor : float; rho : float }
      (** diurnal demand: target throughput rescaled to [rho] *)
  | Repair_migrate of { op : int; from_proc : int; to_group : int }
      (** displaced operator re-placed on a surviving group *)
  | Repair_rebuy of { group : int; config : string; ops : int list }
      (** replacement processor purchased for displaced operators *)
  | Repair_done of {
      t : float;
      cost : float;  (** total platform cost after the repair *)
      migrations : int;
      rebuys : int;
      downtime : float;  (** detect + migrate + provision latency, s *)
    }
  | Repair_infeasible of { t : float; reason : string }
      (** the post-fault platform cannot host the application *)
  | Truncated of { category : string }
      (** depth cap hit for a bounded category; subsequent events of the
          category are dropped *)
  | Note of { key : string; value : string }

type t

val default_depth : int
(** Default per-category cap for {!record_bounded} (200). *)

val create : ?depth:int -> unit -> t
(** A fresh journal, disabled (not recording) until {!enable}d. *)

val enable : ?depth:int -> t -> unit

val recording : t -> bool

val depth : t -> int

val record : t -> event -> unit
(** No-op unless {!recording}. *)

val record_bounded : t -> category:string -> event -> unit
(** Like {!record} but capped at {!depth} events per [category]; the
    first dropped event of a category records {!Truncated} instead. *)

val set_manifest : t -> manifest -> unit

val events : t -> event list
(** In record order. *)

val length : t -> int

val merge : into:t -> t -> unit
(** Append [src]'s events after [into]'s, preserving both orders; sums
    bounded-category counts; keeps [into]'s manifest when both have one.
    Called in canonical cell order by {!Obs.absorb}, which is what makes
    a [--jobs N] merged journal byte-identical to the sequential one. *)

val hash_hex : string -> string
(** FNV-1a 64-bit hash, rendered ["fnv1a:%016x"] — for
    {!manifest.m_config_hash}. *)

val event_to_json : event -> string
(** One canonical JSON object per event, fixed field order, tagged
    ["ev"]. *)

val to_jsonl : t -> string
(** Manifest line (when set) followed by one line per event. *)

type divergence = {
  div_line : int;  (** 1-based line number of the first difference *)
  div_left : string option;  (** [None]: this side ended first *)
  div_right : string option;
  div_context : string list;  (** common lines immediately preceding *)
}

val diff : ?context:int -> string -> string -> divergence option
(** First divergent line between two JSONL renderings, with up to
    [context] (default 3) preceding common lines; [None] if equal. *)

val explain : proc:int -> event list -> event list
(** The decision chain behind final processor [proc]: resolves the
    processor to its builder group through the {!Outcome} mapping,
    closes the group set under merges (a group absorbed into a tracked
    one is tracked from its own acquisition onwards), and keeps every
    event touching the set plus [proc]'s download/downgrade events.
    Empty if the journal has no {!Outcome} or no such processor. *)
