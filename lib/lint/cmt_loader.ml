(* Locate and read the [.cmt]/[.cmti] typedtrees dune leaves under
   [_build] (DESIGN.md §14).

   The walk is deliberately different from {!Driver.collect}: dune's
   object directories are hidden ([.insp_mapping.objs/byte/…]), so dot-
   and underscore-prefixed directories are descended into here, not
   skipped.  Everything downstream (callgraph node order, findings) is
   keyed on sorted unit names and repo-relative source paths, so the
   analysis output is a pure function of the build tree's contents. *)

exception Cmt_error of string

type unit_info = {
  name : string;
  src : string option;
  intf_src : string option;
  impl : Typedtree.structure option;
  intf : Typedtree.signature option;
}

type t = { units : unit_info list; stale : string list; src_root : string }

let normalize path =
  String.split_on_char '/' path
  |> List.filter (fun s -> s <> "" && s <> "." && s <> "..")
  |> String.concat "/"

(* Dune records sources relative to the workspace root, the parent of
   [_build]; a typedtree tree compiled in place records them relative
   to itself. *)
let source_root root =
  let build = Filename.dirname root in
  if Filename.basename build = "_build" then Filename.dirname build else root

(* The test suite compiles deliberately racy/nondeterministic scratch
   universes under [*_fixtures] directories; they are not part of any
   real build universe and must never leak into a repo-wide scan. *)
let fixture_dir name = Filename.check_suffix name "_fixtures"

let find_files root =
  let acc = ref [] in
  let rec walk path =
    match Sys.is_directory path with
    | true ->
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.filter (fun n -> not (fixture_dir n))
      |> List.iter (fun n -> walk (Filename.concat path n))
    | false ->
      if
        Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
      then acc := path :: !acc
    | exception Sys_error _ -> ()
  in
  if Sys.file_exists root then walk root;
  List.sort String.compare !acc

(* The [src] recorded in a cmt is relative to dune's workspace root
   (["lib/mapping/ledger.ml"]); absolute paths (hand-run ocamlc) are
   kept as-is minus normalization. *)
let source_of_cmt (info : Cmt_format.cmt_infos) =
  match info.cmt_sourcefile with
  | None -> None
  | Some s -> Some (if Filename.is_relative s then normalize s else s)

let read path =
  match Cmt_format.read_cmt path with
  | info -> Some info
  | exception Sys_error msg -> raise (Cmt_error msg)
  | exception _ ->
    raise (Cmt_error (path ^ ": unreadable .cmt (wrong compiler version?)"))

let mtime path = try Some (Unix.stat path).Unix.st_mtime with Unix.Unix_error _ -> None

let load ~root () =
  let src_root = source_root root in
  let files = find_files root in
  if files = [] then
    raise
      (Cmt_error
         (Printf.sprintf
            "no .cmt/.cmti files under %s — build first (dune build @check, \
             or `make lint-deep`)"
            root));
  let stale = ref [] in
  let units =
    List.filter_map
      (fun path ->
        match read path with
        | None -> None
        | Some info ->
          let src = source_of_cmt info in
          (* A source newer than its typedtree means the analysis would
             report against code that is no longer there. *)
          (match src with
          | Some s when Filename.is_relative s -> (
            let on_disk = Filename.concat src_root s in
            match (mtime on_disk, mtime path) with
            | Some src_t, Some cmt_t when src_t > cmt_t ->
              stale := s :: !stale
            | _ -> ())
          | _ -> ());
          let impl, intf =
            match info.cmt_annots with
            | Cmt_format.Implementation str -> (Some str, None)
            | Cmt_format.Interface sg -> (None, Some sg)
            | _ -> (None, None)
          in
          if impl = None && intf = None then None
          else
            Some
              {
                name = info.cmt_modname;
                src = (if intf = None then src else None);
                intf_src = (if intf = None then None else src);
                impl;
                intf;
              })
      files
  in
  (* Pair each unit's .cmt with its .cmti and drop duplicates (the same
     alias wrapper can be compiled once per executable directory). *)
  let tbl = Hashtbl.create 128 in
  let names = ref [] in
  List.iter
    (fun u ->
      match Hashtbl.find_opt tbl u.name with
      | None ->
        Hashtbl.replace tbl u.name u;
        names := u.name :: !names
      | Some prev ->
        let merged =
          {
            name = u.name;
            src = (match prev.src with Some _ -> prev.src | None -> u.src);
            intf_src =
              (match prev.intf_src with Some _ -> prev.intf_src | None -> u.intf_src);
            impl = (match prev.impl with Some _ -> prev.impl | None -> u.impl);
            intf = (match prev.intf with Some _ -> prev.intf | None -> u.intf);
          }
        in
        Hashtbl.replace tbl u.name merged)
    units;
  let units =
    List.sort String.compare !names
    |> List.filter_map (fun n -> Hashtbl.find_opt tbl n)
  in
  { units; stale = List.sort_uniq String.compare !stale; src_root }
