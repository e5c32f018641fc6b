module Graph = Insp_tree.Graph
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers
module Ledger = Insp_mapping.Ledger
module Solve = Insp_heuristics.Solve
module Config = Insp_workload.Config
module Instance = Insp_workload.Instance
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal
module Jsonc = Insp_obs.Jsonc
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

exception Unknown_departure of { app : int; t : int }

type tenancy = Static_slicing | Shared

let tenancy_label = function
  | Static_slicing -> "static"
  | Shared -> "shared"

type params = {
  base : Config.t;
  tenancy : tenancy;
  n_tenants : int;
  proc_budget : int;
  card_scale : float;
  heuristic : Solve.heuristic;
  resale : float;
  reoptimize : bool;
}

let make_params ?(base = Config.default) ?(tenancy = Shared) ?(n_tenants = 4)
    ?(proc_budget = 96) ?(card_scale = 1.0) ?(heuristic = Solve.sbu)
    ?(resale = 0.5) ?(reoptimize = false) () =
  if n_tenants < 1 then invalid_arg "Serve.make_params: n_tenants < 1";
  if proc_budget < 1 then invalid_arg "Serve.make_params: proc_budget < 1";
  if card_scale <= 0.0 then invalid_arg "Serve.make_params: card_scale <= 0";
  if resale < 0.0 || resale > 1.0 then
    invalid_arg "Serve.make_params: resale outside [0, 1]";
  {
    base; tenancy; n_tenants; proc_budget; card_scale; heuristic; resale;
    reoptimize;
  }

type admitted = {
  a_tenant : int;
  a_ops : int;
  a_seed : int;
  a_graph : Graph.t;  (* built at admission, re-solved on re-optimization *)
  a_cost : float;
  a_n_procs : int;
  a_card_use : (int * float) list;  (* per-server download load, sorted *)
}

type account = {
  mutable purchased : float;
  mutable refunded : float;
  mutable admitted : int;
  mutable rejected : int;
  mutable departed : int;
}

type t = {
  params : params;
  platform : Platform.t;
  mutable live : admitted Imap.t;
  mutable seen : Iset.t;  (* every application id that ever arrived *)
  accounts : account array;  (* indexed by tenant *)
}

(* The generated platform's card bandwidth is calibrated for one
   application at a time (the paper's one-shot setting); [card_scale]
   shrinks it so that persistent co-tenancy makes cards a contended
   resource rather than leaving the processor budget as the only
   binding constraint. *)
let scale_cards platform scale =
  (* No scale = 1 fast path: multiplying by 1.0 is exact, so the
     rebuilt platform is bit-identical to the original. *)
  let servers = platform.Platform.servers in
  let n = Servers.n_servers servers in
  let n_obj = Servers.n_object_types servers in
  let cards = Array.init n (fun l -> scale *. Servers.card servers l) in
  let holds =
    Array.init n (fun l -> Array.init n_obj (fun k -> Servers.holds servers l k))
  in
  { platform with Platform.servers = Servers.make ~cards ~holds }

let create params =
  let inst = Instance.generate params.base in
  {
    params;
    platform = scale_cards inst.Instance.platform params.card_scale;
    live = Imap.empty;
    seen = Iset.empty;
    accounts =
      Array.init params.n_tenants (fun _ ->
          { purchased = 0.0; refunded = 0.0; admitted = 0; rejected = 0;
            departed = 0 });
  }

let params t = t.params
let n_live t = Imap.cardinal t.live

(* ------------------------------------------------------------------ *)
(* Residual capacity                                                   *)

(* Residuals are recomputed from the admitted-application map (an
   ordered Map fold) on every query rather than kept as mutable float
   state: admit-then-depart restores the map exactly, so the residual is
   byte-identical by construction — no [(a +. x) -. x] residue, no
   drift over thousands of events. *)

let in_scope t ~tenant a =
  match t.params.tenancy with
  | Shared -> true
  | Static_slicing -> a.a_tenant = tenant

let scope_card t l =
  let full = Servers.card t.platform.Platform.servers l in
  match t.params.tenancy with
  | Shared -> full
  | Static_slicing -> full /. float_of_int t.params.n_tenants

let scope_proc_budget t =
  match t.params.tenancy with
  | Shared -> t.params.proc_budget
  | Static_slicing -> t.params.proc_budget / t.params.n_tenants

let residual_cards ?excluding t ~tenant =
  let n = Servers.n_servers t.platform.Platform.servers in
  let used = Array.make n 0.0 in
  Imap.iter
    (fun id a ->
      if in_scope t ~tenant a && Some id <> excluding then
        List.iter
          (fun (l, x) -> used.(l) <- used.(l) +. x)
          a.a_card_use)
    t.live;
  Array.init n (fun l -> scope_card t l -. used.(l))

let residual_procs ?excluding t ~tenant =
  let used =
    Imap.fold
      (fun id a acc ->
        if in_scope t ~tenant a && Some id <> excluding then acc + a.a_n_procs
        else acc)
      t.live 0
  in
  scope_proc_budget t - used

(* The solver needs a platform whose server cards are the scope's
   residual capacity.  [Servers.make] requires strictly positive cards,
   so exhausted cards are clamped to a vanishing epsilon — any download
   against them then fails feasibility, which is the intended reading. *)
let residual_platform ?excluding t ~tenant =
  let servers = t.platform.Platform.servers in
  let n_obj = Servers.n_object_types servers in
  let cards =
    Array.map (fun c -> Float.max c 1e-9) (residual_cards ?excluding t ~tenant)
  in
  let holds =
    Array.init (Servers.n_servers servers) (fun l ->
        Array.init n_obj (fun k -> Servers.holds servers l k))
  in
  { t.platform with Platform.servers = Servers.make ~cards ~holds }

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

type reject_reason = R_placement | R_proc_budget | R_ledger

let reject_label = function
  | R_placement -> "placement"
  | R_proc_budget -> "proc_budget"
  | R_ledger -> "ledger"

let reject_decision = function
  | R_placement -> Journal.Rejected_placement
  | R_proc_budget -> Journal.Rejected_proc_budget
  | R_ledger -> Journal.Rejected_ledger

let instance_for t ~n_operators ~app_seed =
  (* Per-application workload drawn from the service's base template;
     the generated per-instance platform is discarded — applications
     share the service platform. *)
  Instance.generate { t.params.base with Config.n_operators; seed = app_seed }

let card_use_of ledger ~n_servers =
  List.filter
    (fun (_, x) -> x > 0.0)
    (List.init n_servers (fun l -> (l, Ledger.card_load ledger l)))

(* The inner solver runs quietly: its metrics merge up, but its
   per-decision events would drown the serve-level journal (and tie its
   bytes to solver internals). *)
let try_admit t ~tenant ~n_operators ~app_seed =
  let inst = instance_for t ~n_operators ~app_seed in
  let g = Graph.of_app inst.Instance.app in
  let platform = residual_platform t ~tenant in
  match
    Obs.quietly (fun () ->
        Solve.run_graph ~seed:app_seed t.params.heuristic g platform)
  with
  | Error _ -> Error R_placement
  | Ok o ->
    if o.Solve.n_procs > residual_procs t ~tenant then Error R_proc_budget
    else begin
      (* Admission probe: replay the proposed allocation into a fresh
         ledger against the residual platform and require a clean
         violation set.  The solver has validated already, so this is
         the service trusting the ledger, not the solver. *)
      let ledger = Ledger.of_alloc g platform o.Solve.alloc in
      match Ledger.violations ledger with
      | _ :: _ -> Error R_ledger
      | [] ->
        let n_servers = Servers.n_servers t.platform.Platform.servers in
        Ok
          {
            a_tenant = tenant;
            a_ops = n_operators;
            a_seed = app_seed;
            a_graph = g;
            a_cost = o.Solve.cost;
            a_n_procs = o.Solve.n_procs;
            a_card_use = card_use_of ledger ~n_servers;
          }
    end

(* ------------------------------------------------------------------ *)
(* Re-optimization of survivors                                        *)

(* Worst per-server card utilization the scope would see if [extra]
   (an application's candidate placement) were added on top of the
   other live applications. *)
let max_utilization ?excluding t ~tenant ~extra =
  let res = residual_cards ?excluding t ~tenant in
  let worst = ref 0.0 in
  Array.iteri
    (fun l r ->
      let cap = scope_card t l in
      let extra_l =
        List.fold_left
          (fun acc (l', x) -> if l' = l then acc +. x else acc)
          0.0 extra
      in
      if cap > 0.0 then
        worst := Float.max !worst ((cap -. r +. extra_l) /. cap))
    res;
  !worst

(* After a departure, each surviving application of the affected tenant
   is re-solved against the residual platform without itself.  A
   strictly cheaper allocation is adopted as sell-old + buy-new; an
   equal-cost allocation that strictly lowers the scope's worst card
   utilization is adopted as a free rebalance (the tenant keeps
   equivalent hardware, downloads move to less-loaded servers, making
   room for future arrivals).  Scoped to one tenant per departure (also
   under Shared tenancy) to bound work. *)
let reoptimize_tenant t ~tenant =
  let members =
    List.filter (fun (_, a) -> a.a_tenant = tenant) (Imap.bindings t.live)
  in
  List.iter
    (fun (id, a) ->
      let platform = residual_platform ~excluding:id t ~tenant in
      match
        Obs.quietly (fun () ->
            Solve.run_graph ~seed:a.a_seed t.params.heuristic a.a_graph
              platform)
      with
      | Error _ -> ()
      | Ok o ->
        let cheaper = o.Solve.cost +. 1e-9 < a.a_cost in
        let same_cost = Float.abs (o.Solve.cost -. a.a_cost) <= 1e-9 in
        if
          (cheaper || same_cost)
          && o.Solve.n_procs <= residual_procs ~excluding:id t ~tenant
        then begin
          let ledger = Ledger.of_alloc a.a_graph platform o.Solve.alloc in
          match Ledger.violations ledger with
          | _ :: _ -> ()
          | [] ->
            let n_servers = Servers.n_servers t.platform.Platform.servers in
            let card_use = card_use_of ledger ~n_servers in
            let adopt counter =
              t.live <-
                Imap.add id
                  {
                    a with
                    a_cost = o.Solve.cost;
                    a_n_procs = o.Solve.n_procs;
                    a_card_use = card_use;
                  }
                  t.live;
              Obs.incr counter
            in
            if cheaper then begin
              let acct = t.accounts.(tenant) in
              acct.purchased <- acct.purchased +. o.Solve.cost;
              acct.refunded <- acct.refunded +. (t.params.resale *. a.a_cost);
              adopt "serve.reopt.improved"
            end
            else
              let before =
                max_utilization ~excluding:id t ~tenant ~extra:a.a_card_use
              in
              let after =
                max_utilization ~excluding:id t ~tenant ~extra:card_use
              in
              if after +. 1e-6 < before then adopt "serve.reopt.rebalanced"
        end)
    members

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)

let handle t event =
  match event with
  | Stream.Arrival { app; tenant; n_operators; app_seed; t = tick } ->
    if tenant < 0 || tenant >= t.params.n_tenants then
      invalid_arg "Serve.handle: tenant outside the configured range";
    if Imap.mem app t.live then invalid_arg "Serve.handle: duplicate arrival";
    t.seen <- Iset.add app t.seen;
    if Obs.decide Journal.Arrived then
      Obs.event
        (Journal.Serve_arrival { app; tenant; ops = n_operators; t = tick });
    (match try_admit t ~tenant ~n_operators ~app_seed with
    | Ok adm ->
      t.live <- Imap.add app adm t.live;
      let acct = t.accounts.(tenant) in
      acct.admitted <- acct.admitted + 1;
      acct.purchased <- acct.purchased +. adm.a_cost;
      if Obs.decide Journal.Admitted then
        Obs.event
          (Journal.Serve_admit
             { app; tenant; cost = adm.a_cost; n_procs = adm.a_n_procs })
    | Error reason ->
      let acct = t.accounts.(tenant) in
      acct.rejected <- acct.rejected + 1;
      if Obs.decide (reject_decision reason) then
        Obs.event
          (Journal.Serve_reject { app; tenant; reason = reject_label reason }))
  | Stream.Departure { app; t = tick } -> (
    match Imap.find_opt app t.live with
    | None ->
      (* A departure of a rejected application is a normal
         stream artefact; one for an id that never arrived is a
         malformed stream and must not be silently swallowed. *)
      if not (Iset.mem app t.seen) then begin
        if Obs.decide Journal.Departed_unknown then
          Obs.event (Journal.Serve_unknown_depart { app; t = tick });
        raise (Unknown_departure { app; t = tick })
      end
    | Some a ->
      t.live <- Imap.remove app t.live;
      let refund = t.params.resale *. a.a_cost in
      let acct = t.accounts.(a.a_tenant) in
      acct.departed <- acct.departed + 1;
      acct.refunded <- acct.refunded +. refund;
      if Obs.decide Journal.Departed then
        Obs.event (Journal.Serve_depart { app; tenant = a.a_tenant; refund });
      if t.params.reoptimize then reoptimize_tenant t ~tenant:a.a_tenant)

let run params events =
  let t = create params in
  List.iter (handle t) events;
  t

(* ------------------------------------------------------------------ *)
(* Summaries and canonical dumps                                       *)

type tenant_summary = {
  tenant : int;  (** -1 in {!totals} *)
  purchased : float;
  refunded : float;
  net_cost : float;
  admitted : int;
  rejected : int;
  departed : int;
  live : int;
}

let summary_of (t : t) tenant (acct : account) =
  let live =
    Imap.fold
      (fun _ a acc -> if a.a_tenant = tenant then acc + 1 else acc)
      t.live 0
  in
  {
    tenant;
    purchased = acct.purchased;
    refunded = acct.refunded;
    net_cost = acct.purchased -. acct.refunded;
    admitted = acct.admitted;
    rejected = acct.rejected;
    departed = acct.departed;
    live;
  }

let summary t =
  List.init (Array.length t.accounts) (fun tenant ->
      summary_of t tenant t.accounts.(tenant))

let totals t =
  List.fold_left
    (fun acc s ->
      {
        tenant = -1;
        purchased = acc.purchased +. s.purchased;
        refunded = acc.refunded +. s.refunded;
        net_cost = acc.net_cost +. s.net_cost;
        admitted = acc.admitted + s.admitted;
        rejected = acc.rejected + s.rejected;
        departed = acc.departed + s.departed;
        live = acc.live + s.live;
      })
    {
      tenant = -1;
      purchased = 0.0;
      refunded = 0.0;
      net_cost = 0.0;
      admitted = 0;
      rejected = 0;
      departed = 0;
      live = 0;
    }
    (summary t)

let rejection_rate s =
  let total = s.admitted + s.rejected in
  if total = 0 then 0.0 else float_of_int s.rejected /. float_of_int total

(* Canonical renderings: Map iteration order and Jsonc float form make
   both dumps pure functions of the state — the byte-identity anchor of
   `insp_cli serve --verify` and the restore property test. *)

let render_cards cards =
  String.concat ";"
    (List.map (fun (l, x) -> Printf.sprintf "%d:%s" l (Jsonc.float x)) cards)

let dump_resources (t : t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "tenancy %s tenants %d proc_budget %d live %d\n"
       (tenancy_label t.params.tenancy)
       t.params.n_tenants t.params.proc_budget (n_live t));
  Imap.iter
    (fun id a ->
      Buffer.add_string buf
        (Printf.sprintf "app %d tenant %d ops %d seed %d procs %d cost %s cards [%s]\n"
           id a.a_tenant a.a_ops a.a_seed a.a_n_procs (Jsonc.float a.a_cost)
           (render_cards a.a_card_use)))
    t.live;
  let scopes =
    match t.params.tenancy with
    | Shared -> [ 0 ]
    | Static_slicing -> List.init t.params.n_tenants Fun.id
  in
  List.iter
    (fun tenant ->
      let cards =
        Array.to_list (residual_cards t ~tenant)
        |> List.mapi (fun l c -> (l, c))
      in
      Buffer.add_string buf
        (Printf.sprintf "residual scope %d procs %d cards [%s]\n" tenant
           (residual_procs t ~tenant)
           (render_cards cards)))
    scopes;
  Buffer.contents buf

let dump_state t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (dump_resources t);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "account tenant %d purchased %s refunded %s net %s admitted %d \
            rejected %d departed %d live %d\n"
           s.tenant (Jsonc.float s.purchased) (Jsonc.float s.refunded)
           (Jsonc.float s.net_cost) s.admitted s.rejected s.departed s.live))
    (summary t);
  Buffer.contents buf
