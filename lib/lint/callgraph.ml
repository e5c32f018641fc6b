(* Cross-module value-level call graph over the typedtrees of one build
   universe (DESIGN.md §14).

   Node ids are ["Unit.value"] strings (["Insp_mapping__Ledger.probe"],
   nested modules as ["Unit.Sub.value"]) and every list in the output is
   sorted, so the graph — and everything computed from it — is a pure
   function of the build tree.

   Resolution is two-phase.  Phase 1 indexes, per unit: every top-level
   value ident by its unique stamp (exact, so local shadowing cannot
   misattribute a reference), and every top-level [module X = Path]
   alias.  Phase 2 walks each binding body, registering each
   [let module X = Path in] alias before its body is walked; a [Path.t] whose head is a
   persistent ident is chased through the alias tables (dune's generated
   wrapper modules are themselves units full of aliases, so
   [Insp_mapping.Ledger.probe] lands on [Insp_mapping__Ledger.probe]),
   and a bare local ident is matched by stamp. *)

type site = { file : string; line : int; col : int }

let compare_site a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else Int.compare a.col b.col

type prim =
  | Hash_iter of string
  | Random_use of string
  | Wall_clock of string

let prim_label = function Hash_iter s | Random_use s | Wall_clock s -> s

type event = { prim : prim; at : site; e_allowed : Rule.t list }
type gref = { target : string; at : site; write : bool; r_allowed : Rule.t list }

type spawn = {
  at : site;
  s_allowed : Rule.t list;
  body : gref list;
  opaque : bool;
}

type decl = {
  id : string;
  unit_name : string;
  val_name : string;
  at : site;
  mutable_def : string option;
  refs : gref list;
  events : event list;
  spawns : spawn list;
  d_allowed : Rule.t list;
}

type export = {
  e_unit : string;
  e_name : string;
  e_at : site;
  e_allowed : Rule.t list;
}

type t = { decls : decl list; exports : export list }

let node_id ~unit_name name = unit_name ^ "." ^ name

(* ------------------------------------------------------------------ *)
(* Path plumbing                                                       *)

let rec flatten_path p =
  match p with
  | Path.Pident id -> [ (Ident.global id, Ident.name id) ]
  | Path.Pdot (p, s) -> flatten_path p @ [ (false, s) ]
  | Path.Papply (a, _) -> flatten_path a
  | Path.Pextra_ty (p, _) -> flatten_path p

(* Stdlib-normalized segment list, so [Stdlib.Random.int] and
   [Random.int] (via the pervasives alias) compare equal — same
   convention as the parsetree engine. *)
let strip_stdlib = function "Stdlib" :: rest when rest <> [] -> rest | segs -> segs

let default_read path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Primitive classification (on Stdlib-normalized segments)            *)

let classify_prim segs =
  match segs with
  | [ "Hashtbl"; (("fold" | "iter" | "to_seq" | "to_seq_keys" | "to_seq_values") as fn) ]
    ->
    Some (Hash_iter ("Hashtbl." ^ fn))
  | [ "Sys"; "time" ] -> Some (Wall_clock "Sys.time")
  | [ "Unix"; (("time" | "gettimeofday") as fn) ] ->
    Some (Wall_clock ("Unix." ^ fn))
  | _ -> None

(* [Random.*] needs its own arm: any value of the module taints. *)
let classify_random segs =
  match segs with
  | "Random" :: _ :: _ -> Some (Random_use (String.concat "." segs))
  | _ -> None

(* Mutation primitives: applying one of these to a top-level value is a
   write to escaping state; to anything else, a local mutation. *)
let is_mutation segs =
  match segs with
  | [ (":=" | "incr" | "decr") ] -> true
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace") ]
  | [ "Array"; ("set" | "fill" | "blit" | "unsafe_set" | "sort" | "fast_sort" | "stable_sort") ]
  | [ "Bytes"; ("set" | "fill" | "blit" | "unsafe_set") ]
  | [ "Buffer"; ("add_string" | "add_char" | "add_bytes" | "add_buffer"
                | "clear" | "reset" | "truncate") ]
  | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear" | "transfer") ]
  | [ "Stack"; ("push" | "pop" | "clear") ]
  | [ "Atomic"; ("set" | "exchange" | "compare_and_set" | "fetch_and_add"
                | "incr" | "decr") ] ->
    true
  | _ -> false

let is_spawn segs =
  match segs with [ "Domain"; ("spawn" | "spawn_on") ] -> true | _ -> false

let is_sort segs =
  match segs with
  | [ "List"; ("sort" | "sort_uniq" | "stable_sort" | "fast_sort") ] -> true
  | _ -> false

(* Mutable top-level state: does this binding body construct a ref, an
   array, a table, a mutable record…?  Chases let-bodies and sequences
   so [let t = let n = size () in Array.make n 0] is still caught. *)
let rec mutable_construct (e : Typedtree.expression) =
  let open Typedtree in
  match e.exp_desc with
  | Texp_array _ -> Some "array literal"
  | Texp_record { fields; _ }
    when Array.exists
           (fun ((ld : Types.label_description), _) ->
             ld.lbl_mut = Asttypes.Mutable)
           fields ->
    Some "record with mutable fields"
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
    match strip_stdlib (List.map snd (flatten_path p)) with
    | [ "ref" ] -> Some "ref"
    | [ "Hashtbl"; "create" ] -> Some "Hashtbl.t"
    | [ "Array"; ("make" | "init" | "create_float" | "of_list" | "copy") ] ->
      Some "array"
    | [ "Bytes"; ("create" | "make" | "of_string") ] -> Some "bytes"
    | [ "Buffer"; "create" ] -> Some "Buffer.t"
    | [ "Queue"; "create" ] -> Some "Queue.t"
    | [ "Stack"; "create" ] -> Some "Stack.t"
    | [ "Atomic"; "make" ] -> Some "Atomic.t"
    | _ -> None)
  | Texp_let (_, _, body) -> mutable_construct body
  | Texp_sequence (_, body) -> mutable_construct body
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Phase 1: per-unit symbol tables                                      *)

type mod_target = Self of string | Alias of string list
(* [Self "Sub"]: a real structure of this unit; [Alias segs]: a module
   alias, rooted at a compilation unit name. *)

type unit_index = {
  u_name : string;
  u_src : string option;
  u_intf_src : string option;
  values : (string, string) Hashtbl.t;  (* Ident.unique_name -> qualified val *)
  modules : (string, mod_target) Hashtbl.t;  (* Ident.unique_name -> target *)
  aliases : (string, string list) Hashtbl.t;  (* module name -> rooted segs *)
  mutable bindings :
    (string * Typedtree.value_binding * site * string option) list;
    (* qualified name, binding, site, mutable kind — reverse order *)
}

let site_of_loc ~file (loc : Location.t) =
  let pos = loc.Location.loc_start in
  {
    file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
  }

let rec pattern_vars (p : Typedtree.pattern) acc =
  let open Typedtree in
  match p.pat_desc with
  | Tpat_var (id, name) -> (id, name.Location.txt) :: acc
  | Tpat_alias (p, id, name) -> pattern_vars p ((id, name.Location.txt) :: acc)
  | Tpat_tuple ps -> List.fold_left (fun acc p -> pattern_vars p acc) acc ps
  | Tpat_construct (_, _, ps, _) ->
    List.fold_left (fun acc p -> pattern_vars p acc) acc ps
  | Tpat_record (fields, _) ->
    List.fold_left (fun acc (_, _, p) -> pattern_vars p acc) acc fields
  | Tpat_array ps -> List.fold_left (fun acc p -> pattern_vars p acc) acc ps
  | Tpat_or (a, b, _) -> pattern_vars b (pattern_vars a acc)
  | Tpat_variant (_, Some p, _) | Tpat_lazy p -> pattern_vars p acc
  | _ -> acc

(* Root an alias target: a path whose head is persistent is already
   rooted; a local head is chased through this unit's own module map. *)
let root_alias idx path =
  match flatten_path path with
  | [] -> None
  | (true, head) :: rest -> Some (head :: List.map snd rest)
  | (false, _) :: _ -> (
    match path with
    | Path.Pident id | Path.Pdot (Path.Pident id, _) -> (
      let tail =
        match path with Path.Pdot (_, s) -> [ s ] | _ -> []
      in
      match Hashtbl.find_opt idx.modules (Ident.unique_name id) with
      | Some (Alias segs) -> Some (segs @ tail)
      | Some (Self _) | None -> None)
    | _ -> None)

let rec strip_constraints (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_constraint (me, _, _, _) -> strip_constraints me
  | _ -> me

(* Record [module X = Path] (top-level or [let module]) in the unit's
   module map, keyed by the binder's unique stamp; the rooted target,
   if any. *)
let register_alias idx id me =
  match (strip_constraints me).Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) ->
    let segs = root_alias idx p in
    Option.iter
      (fun segs ->
        Hashtbl.replace idx.modules (Ident.unique_name id) (Alias segs))
      segs;
    segs
  | _ -> None

let rec index_structure idx ~prefix (str : Typedtree.structure) =
  let open Typedtree in
  let qualify name = if prefix = "" then name else prefix ^ "." ^ name in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let vars = List.rev (pattern_vars vb.vb_pat []) in
            let file = match idx.u_src with Some s -> s | None -> "" in
            let at = site_of_loc ~file vb.vb_loc in
            match vars with
            | [] ->
              (* [let () = …] initialization code: a synthetic root. *)
              let name = qualify (Printf.sprintf "<init:%d>" at.line) in
              idx.bindings <- (name, vb, at, None) :: idx.bindings
            | vars ->
              let kind = mutable_construct vb.vb_expr in
              List.iter
                (fun (id, name) ->
                  let q = qualify name in
                  Hashtbl.replace idx.values (Ident.unique_name id) q;
                  idx.bindings <- (q, vb, at, kind) :: idx.bindings)
                vars)
          vbs
      | Tstr_module mb -> index_module idx ~prefix ~qualify mb
      | Tstr_recmodule mbs -> List.iter (index_module idx ~prefix ~qualify) mbs
      | _ -> ())
    str.str_items

and index_module idx ~prefix ~qualify (mb : Typedtree.module_binding) =
  let open Typedtree in
  match mb.mb_id with
  | None -> ()
  | Some id -> (
    let name = Ident.name id in
    match (strip_constraints mb.mb_expr).mod_desc with
    | Tmod_ident _ -> (
      match register_alias idx id mb.mb_expr with
      | Some segs -> if prefix = "" then Hashtbl.replace idx.aliases name segs
      | None -> ())
    | Tmod_structure str ->
      Hashtbl.replace idx.modules (Ident.unique_name id) (Self (qualify name));
      index_structure idx ~prefix:(qualify name) str
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* Phase 2: body walks with cross-unit resolution                       *)

type universe = {
  by_unit : (string, unit_index) Hashtbl.t;
  read_source : string -> string option;
  suppress_cache : (string, Suppress.t) Hashtbl.t;
}

let suppress_for uni file =
  match Hashtbl.find_opt uni.suppress_cache file with
  | Some s -> s
  | None ->
    let s =
      match uni.read_source file with
      | Some src -> Suppress.scan src
      | None -> Suppress.scan ""
    in
    Hashtbl.replace uni.suppress_cache file s;
    s

(* Chase a rooted segment list through the per-unit alias tables down to
   [(unit, value)].  Depth-bounded: alias cycles cannot diverge. *)
let resolve_rooted uni segs =
  let rec go depth segs =
    if depth > 32 then None
    else
      match segs with
      | [] | [ _ ] -> None
      | unit_name :: rest -> (
        match Hashtbl.find_opt uni.by_unit unit_name with
        | None -> None
        | Some _ -> (
          let descend unit_name rest =
            match rest with
            | [] -> None
            | [ v ] -> Some (node_id ~unit_name v)
            | m :: tail -> (
              let aliases =
                match Hashtbl.find_opt uni.by_unit unit_name with
                | Some idx -> Hashtbl.find_opt idx.aliases m
                | None -> None
              in
              match aliases with
              | Some target -> go (depth + 1) (target @ tail)
              | None ->
                (* a real nested module: the id is the qualified name *)
                Some (node_id ~unit_name (String.concat "." rest)))
          in
          descend unit_name rest))
  in
  go 0 segs

type walk_ctx = {
  uni : universe;
  idx : unit_index;
  file : string;
  suppress : Suppress.t;
  intf_wall_ok : bool;  (* wall-clock sanctioned file (bench/, obs clock) *)
  rand_ok : bool;  (* lib/util PRNG internals *)
  mutable sort_depth : int;
  mutable allow_stack : Rule.t list list;
  mutable w_refs : gref list;
  mutable w_events : event list;
  mutable w_spawns : spawn list;
  mutable w_opaque : bool;
  record_spawns : bool;
}

let allowed_at ctx line =
  let stack = List.concat ctx.allow_stack in
  List.filter
    (fun r -> List.mem r stack || Suppress.allows ctx.suppress ~line r)
    Rule.all

(* Resolve one [Texp_ident] to a node id, if it lands in the universe. *)
let resolve_ident ctx path =
  match path with
  | Path.Pident id when not (Ident.global id) -> (
    match Hashtbl.find_opt ctx.idx.values (Ident.unique_name id) with
    | Some q -> Some (node_id ~unit_name:ctx.idx.u_name q)
    | None -> None)
  | _ -> (
    match flatten_path path with
    | (true, head) :: rest ->
      resolve_rooted ctx.uni (head :: List.map snd rest)
    | (false, hname) :: rest -> (
      (* local head: a module alias or a real local submodule *)
      let head_ident =
        let rec head p =
          match p with
          | Path.Pident id -> Some id
          | Path.Pdot (p, _) -> head p
          | Path.Papply (a, _) -> head a
          | Path.Pextra_ty (p, _) -> head p
        in
        head path
      in
      ignore hname;
      match head_ident with
      | None -> None
      | Some id -> (
        match Hashtbl.find_opt ctx.idx.modules (Ident.unique_name id) with
        | Some (Alias segs) ->
          resolve_rooted ctx.uni (segs @ List.map snd rest)
        | Some (Self prefix) ->
          Some
            (node_id ~unit_name:ctx.idx.u_name
               (String.concat "." (prefix :: List.map snd rest)))
        | None -> None))
    | [] -> None)

let normalized_segs path = strip_stdlib (List.map snd (flatten_path path))

let head_path (e : Typedtree.expression) =
  let open Typedtree in
  let rec go e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some p
    | Texp_apply (f, _) -> go f
    | _ -> None
  in
  go e

let applies_sort (e : Typedtree.expression) =
  let open Typedtree in
  match e.exp_desc with
  | Texp_apply (f, args) -> (
    let arg_sorts (_, a) =
      match a with
      | Some a -> (
        match head_path a with
        | Some p -> is_sort (normalized_segs p)
        | None -> false)
      | None -> false
    in
    match head_path f with
    | Some p -> (
      match normalized_segs p with
      | [ ("|>" | "@@") ] -> List.exists arg_sorts args
      | segs -> is_sort segs)
    | None -> false)
  | _ -> false

(* Is this expression a local identifier of arrow type that we cannot
   resolve to a top-level value?  Inside a spawned closure that means
   the closure can run code we cannot enumerate (a let-bound worker
   function), so the caller falls back to the enclosing declaration's
   whole footprint. *)
let unresolved_local_fn ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident ((Path.Pident id as p), _, _)
    when not (Ident.global id) ->
    resolve_ident ctx p = None
    && (match Types.get_desc e.Typedtree.exp_type with
       | Types.Tarrow _ -> true
       | _ -> false)
  | _ -> false

let record_ref ctx ~write ~at path =
  match resolve_ident ctx path with
  | None -> ()
  | Some target ->
    ctx.w_refs <-
      { target; at; write; r_allowed = allowed_at ctx at.line } :: ctx.w_refs

let fresh_sub_ctx ctx =
  {
    ctx with
    w_refs = [];
    w_events = [];
    w_spawns = [];
    w_opaque = false;
    record_spawns = false;
    sort_depth = ctx.sort_depth;
    allow_stack = ctx.allow_stack;
  }

let rec walk_expr ctx (e : Typedtree.expression) =
  let open Typedtree in
  let at = site_of_loc ~file:ctx.file e.exp_loc in
  let push_attrs attrs k =
    match Suppress.rules_of_attributes attrs with
    | [] -> k ()
    | allows ->
      ctx.allow_stack <- allows :: ctx.allow_stack;
      k ();
      (match ctx.allow_stack with
      | [] -> ()
      | _ :: rest -> ctx.allow_stack <- rest)
  in
  push_attrs e.exp_attributes (fun () ->
      (match e.exp_desc with
      | Texp_ident (p, _, _) -> (
        record_ref ctx ~write:false ~at p;
        let segs = normalized_segs p in
        let ev prim =
          ctx.w_events <-
            { prim; at; e_allowed = allowed_at ctx at.line } :: ctx.w_events
        in
        match classify_prim segs with
        | Some (Hash_iter _ as prim) -> if ctx.sort_depth = 0 then ev prim
        | Some (Wall_clock _ as prim) -> if not ctx.intf_wall_ok then ev prim
        | Some prim -> ev prim
        | None -> (
          match classify_random segs with
          | Some prim -> if not ctx.rand_ok then ev prim
          | None -> ()))
      | Texp_letmodule (Some id, _, _, me, _) ->
        (* registered before the body is walked, so [X.v] resolves *)
        ignore (register_alias ctx.idx id me)
      | Texp_setfield (target, _, _, _) -> (
        match target.exp_desc with
        | Texp_ident (p, _, _) when resolve_ident ctx p <> None ->
          record_ref ctx ~write:true ~at p
        | _ -> ())
      | Texp_apply (f, args) -> (
        match head_path f with
        | None -> ()
        | Some fp -> (
          let segs = normalized_segs fp in
          (* Domain.spawn: collect the closure's own footprint. *)
          if is_spawn segs && ctx.record_spawns then begin
            match
              List.filter_map
                (fun (lbl, a) ->
                  match (lbl, a) with
                  | Asttypes.Nolabel, Some a -> Some a
                  | _ -> None)
                args
            with
            | closure :: _ ->
              let sub = fresh_sub_ctx ctx in
              walk_expr sub closure;
              ctx.w_spawns <-
                {
                  at;
                  s_allowed = allowed_at ctx at.line;
                  body = sub.w_refs;
                  opaque = sub.w_opaque;
                }
                :: ctx.w_spawns
            | [] -> ()
          end;
          if is_mutation segs then
            match
              List.filter_map
                (fun (lbl, a) ->
                  match (lbl, a) with
                  | Asttypes.Nolabel, Some a -> Some a
                  | _ -> None)
                args
            with
            | first :: _ -> (
              match first.exp_desc with
              | Texp_ident (p, _, _) when resolve_ident ctx p <> None ->
                record_ref ctx ~write:true
                  ~at:(site_of_loc ~file:ctx.file first.exp_loc)
                  p
              | _ -> ())
            | [] -> ()))
      | _ -> ());
      if unresolved_local_fn ctx e then ctx.w_opaque <- true;
      let sorts = applies_sort e in
      if sorts then ctx.sort_depth <- ctx.sort_depth + 1;
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ e -> walk_expr ctx e);
        }
      in
      Tast_iterator.default_iterator.expr it e;
      if sorts then ctx.sort_depth <- ctx.sort_depth - 1)

(* ------------------------------------------------------------------ *)
(* Exports (from the .cmti signature)                                   *)

let exports_of_unit uni (u : Cmt_loader.unit_info) =
  match (u.Cmt_loader.intf, u.Cmt_loader.intf_src) with
  | Some sg, Some intf_src ->
    let suppress = suppress_for uni intf_src in
    List.filter_map
      (fun (item : Typedtree.signature_item) ->
        match item.Typedtree.sig_desc with
        | Typedtree.Tsig_value vd ->
          let at = site_of_loc ~file:intf_src vd.Typedtree.val_loc in
          let from_attrs =
            Suppress.rules_of_attributes vd.Typedtree.val_attributes
          in
          let e_allowed =
            List.filter
              (fun r ->
                List.mem r from_attrs || Suppress.allows suppress ~line:at.line r)
              Rule.all
          in
          Some
            {
              e_unit = u.Cmt_loader.name;
              e_name = Ident.name vd.Typedtree.val_id;
              e_at = at;
              e_allowed;
            }
        | _ -> None)
      sg.Typedtree.sig_items
  | _ -> []

(* ------------------------------------------------------------------ *)

let build ?(read_source = default_read) (loaded : Cmt_loader.t) =
  let uni =
    {
      by_unit = Hashtbl.create 128;
      read_source;
      suppress_cache = Hashtbl.create 128;
    }
  in
  (* Phase 1: indexes. *)
  let indexes =
    List.filter_map
      (fun (u : Cmt_loader.unit_info) ->
        let idx =
          {
            u_name = u.Cmt_loader.name;
            u_src = u.Cmt_loader.src;
            u_intf_src = u.Cmt_loader.intf_src;
            values = Hashtbl.create 64;
            modules = Hashtbl.create 16;
            aliases = Hashtbl.create 16;
            bindings = [];
          }
        in
        (match u.Cmt_loader.impl with
        | Some str -> index_structure idx ~prefix:"" str
        | None -> ());
        if not (Hashtbl.mem uni.by_unit idx.u_name) then
          Hashtbl.replace uni.by_unit idx.u_name idx
        else begin
          (* duplicate wrapper units: merge alias tables *)
          match Hashtbl.find_opt uni.by_unit idx.u_name with
          | Some prev ->
            Hashtbl.iter
              (fun k v ->
                if not (Hashtbl.mem prev.aliases k) then
                  Hashtbl.replace prev.aliases k v)
              idx.aliases
          | None -> ()
        end;
        if u.Cmt_loader.impl = None then None else Some idx)
      loaded.Cmt_loader.units
  in
  (* Phase 2: walk bodies. *)
  let decls =
    List.concat_map
      (fun idx ->
        match idx.u_src with
        | None -> []
        | Some file ->
          let suppress = suppress_for uni file in
          let walk_binding (qname, (vb : Typedtree.value_binding), at, kind) =
            let ctx =
              {
                uni;
                idx;
                file;
                suppress;
                intf_wall_ok = Engine.wall_clock_sanctioned file;
                rand_ok = Engine.under_lib_util file;
                sort_depth = 0;
                allow_stack = [];
                w_refs = [];
                w_events = [];
                w_spawns = [];
                w_opaque = false;
                record_spawns = true;
              }
            in
            let vb_allows = Suppress.rules_of_attributes vb.Typedtree.vb_attributes in
            if vb_allows <> [] then ctx.allow_stack <- [ vb_allows ];
            walk_expr ctx vb.Typedtree.vb_expr;
            let d_allowed =
              List.filter
                (fun r ->
                  List.mem r vb_allows || Suppress.allows suppress ~line:at.line r)
                Rule.all
            in
            {
              id = node_id ~unit_name:idx.u_name qname;
              unit_name = idx.u_name;
              val_name = qname;
              at;
              mutable_def = kind;
              refs = List.rev ctx.w_refs;
              events = List.rev ctx.w_events;
              spawns = List.rev ctx.w_spawns;
              d_allowed;
            }
          in
          List.rev_map walk_binding idx.bindings)
      indexes
  in
  let decls =
    List.sort (fun a b -> String.compare a.id b.id) decls
  in
  let exports =
    List.concat_map (exports_of_unit uni) loaded.Cmt_loader.units
    |> List.sort (fun a b ->
           let c = String.compare a.e_unit b.e_unit in
           if c <> 0 then c else String.compare a.e_name b.e_name)
  in
  { decls; exports }
