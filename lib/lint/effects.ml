(* Bottom-up effect inference over the call graph (DESIGN.md §14).

   Tarjan's algorithm emits strongly connected components callees-first,
   so one pass over the condensation is the fixpoint: every member of an
   SCC is assigned the union of the whole component's direct facts plus
   the (already final) summaries of its out-of-component callees.

   Witnesses are kept deterministic: when several call chains reach the
   same fact, the shortest chain wins, ties broken lexicographically. *)

module SMap = Map.Make (String)

type touch = {
  g : string;
  g_kind : string;
  t_at : Callgraph.site;
  via : string list;
  t_write : bool;
  t_allowed : Rule.t list;
}

type witness = {
  w_label : string;
  w_at : Callgraph.site;
  w_via : string list;
  w_allowed : Rule.t list;
}

type summary = { touched : touch list; nondet : witness option }

type t = { summaries : summary SMap.t }

let pure_summary = { touched = []; nondet = None }

let summary t id = SMap.find_opt id t.summaries

(* ------------------------------------------------------------------ *)
(* Deterministic merge helpers                                          *)

let compare_via a b = List.compare String.compare a b

let better_witness a b =
  let c = Int.compare (List.length a.w_via) (List.length b.w_via) in
  if c < 0 then a
  else if c > 0 then b
  else
    let c = compare_via a.w_via b.w_via in
    if c < 0 then a
    else if c > 0 then b
    else
      let c = String.compare a.w_label b.w_label in
      if c < 0 then a
      else if c > 0 then b
      else if Callgraph.compare_site a.w_at b.w_at <= 0 then a
      else b

let merge_witness a b =
  match (a, b) with
  | None, w | w, None -> w
  | Some a, Some b -> Some (better_witness a b)

(* Per-global dedupe: a write beats a read, then the shortest chain. *)
let better_touch a b =
  if a.t_write <> b.t_write then if a.t_write then a else b
  else
    let c = Int.compare (List.length a.via) (List.length b.via) in
    if c < 0 then a
    else if c > 0 then b
    else
      let c = compare_via a.via b.via in
      if c < 0 then a
      else if c > 0 then b
      else if Callgraph.compare_site a.t_at b.t_at <= 0 then a
      else b

let merge_touches ts =
  let m =
    List.fold_left
      (fun m t ->
        SMap.update t.g
          (function None -> Some t | Some prev -> Some (better_touch prev t))
          m)
      SMap.empty ts
  in
  SMap.bindings m |> List.map snd

(* ------------------------------------------------------------------ *)
(* Tarjan SCC, emitted callees-first                                    *)

let sccs ~succ ids =
  let index = Hashtbl.create 256 in
  let lowlink = Hashtbl.create 256 in
  let on_stack = Hashtbl.create 256 in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          let lv = Hashtbl.find lowlink v and lw = Hashtbl.find lowlink w in
          if lw < lv then Hashtbl.replace lowlink v lw
        end
        else if Hashtbl.find_opt on_stack w = Some true then begin
          let lv = Hashtbl.find lowlink v and iw = Hashtbl.find index w in
          if iw < lv then Hashtbl.replace lowlink v iw
        end)
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) ids;
  List.rev !out

(* ------------------------------------------------------------------ *)

let analyze (cg : Callgraph.t) =
  let decls =
    List.fold_left
      (fun m (d : Callgraph.decl) ->
        if SMap.mem d.id m then m else SMap.add d.id d m)
      SMap.empty cg.decls
  in
  let mutable_kind id =
    match SMap.find_opt id decls with
    | Some d -> d.Callgraph.mutable_def
    | None -> None
  in
  let succ id =
    match SMap.find_opt id decls with
    | None -> []
    | Some d ->
      List.filter_map
        (fun (r : Callgraph.gref) ->
          if SMap.mem r.target decls then Some r.target else None)
        d.refs
      |> List.sort_uniq String.compare
  in
  let ids = List.map (fun (d : Callgraph.decl) -> d.id) cg.decls in
  let components = sccs ~succ ids in
  let summaries = ref SMap.empty in
  let final id =
    match SMap.find_opt id !summaries with Some s -> s | None -> pure_summary
  in
  (* Direct facts of one declaration. *)
  let direct (d : Callgraph.decl) =
    let touches =
      List.filter_map
        (fun (r : Callgraph.gref) ->
          let kind = mutable_kind r.target in
          if r.write || kind <> None then
            Some
              {
                g = r.target;
                g_kind =
                  (match kind with Some k -> k | None -> "mutated state");
                t_at = r.at;
                via = [];
                t_write = r.write;
                t_allowed = r.r_allowed;
              }
          else None)
        d.refs
    in
    let witness_of (e : Callgraph.event) =
      {
        w_label = Callgraph.prim_label e.prim;
        w_at = e.at;
        w_via = [];
        w_allowed = e.e_allowed;
      }
    in
    let nondet =
      List.fold_left
        (fun acc e -> merge_witness acc (Some (witness_of e)))
        None d.events
    in
    (touches, nondet)
  in
  List.iter
    (fun component ->
      let members = List.sort String.compare component in
      let in_scc id = List.mem id members in
      (* Facts owned by each member: its direct facts plus what it
         inherits from out-of-component callees (whose summaries are
         final).  [owner] lets other members of the same component
         prepend the owner to the chain. *)
      let owned =
        List.map
          (fun id ->
            match SMap.find_opt id decls with
            | None -> (id, ([], None))
            | Some d ->
              let touches, nondet = direct d in
              let inherited =
                succ id
                |> List.filter (fun c -> not (in_scc c))
                |> List.map (fun c ->
                       let s = final c in
                       ( List.map (fun t -> { t with via = c :: t.via }) s.touched,
                         Option.map
                           (fun w -> { w with w_via = c :: w.w_via })
                           s.nondet ))
              in
              let touches = touches @ List.concat_map fst inherited in
              let nondet =
                List.fold_left
                  (fun acc (_, w) -> merge_witness acc w)
                  nondet inherited
              in
              (id, (touches, nondet)))
          members
      in
      List.iter
        (fun id ->
          let touches =
            List.concat_map
              (fun (owner, (ts, _)) ->
                if owner = id then ts
                else List.map (fun t -> { t with via = owner :: t.via }) ts)
              owned
          in
          let nondet =
            List.fold_left
              (fun acc (owner, (_, w)) ->
                let w =
                  if owner = id then w
                  else Option.map (fun w -> { w with w_via = owner :: w.w_via }) w
                in
                merge_witness acc w)
              None owned
          in
          summaries :=
            SMap.add id { touched = merge_touches touches; nondet } !summaries)
        members)
    components;
  { summaries = !summaries }
