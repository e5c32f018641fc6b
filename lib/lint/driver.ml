type format = Text | Csv | Json

type config = {
  format : format;
  baseline : string option;
  update_baseline : bool;
  roots : string list;
  only : string list option;
  deep : bool;
  cmt_root : string;
  allow_stale : bool;
}

(* [e] selects [f] when equal, or when [e] is a directory prefix —
   porcelain reports untracked directories as a single ["dir/"] entry. *)
let selects e f = f = e || String.starts_with ~prefix:(e ^ "/") f

let paths_of_porcelain lines =
  List.filter_map
    (fun line ->
      if String.length line < 4 then None
      else
        let path = String.sub line 3 (String.length line - 3) in
        (* renames: "R  old -> new"; keep the new name *)
        let path =
          match String.index_opt path '>' with
          | Some i when i >= 2 && String.sub path (i - 2) 3 = " ->" ->
            String.sub path (i + 2) (String.length path - i - 2)
          | _ -> path
        in
        let path = String.trim path in
        let path =
          (* git quotes paths with special characters *)
          if
            String.length path >= 2
            && path.[0] = '"'
            && path.[String.length path - 1] = '"'
          then String.sub path 1 (String.length path - 2)
          else path
        in
        if path = "" then None else Some (Cmt_loader.normalize path))
    lines
  |> List.sort_uniq String.compare

(* Dot/underscore prefixes are build products; the [*_fixtures] suffix
   is the test suite's scratch corpora of deliberately-dirty sources
   (see Cmt_loader.find_files, which skips them for the same reason). *)
let hidden name =
  String.length name > 0
  && (name.[0] = '.' || name.[0] = '_' || Filename.check_suffix name "_fixtures")

let collect roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.filter (fun n -> not (hidden n))
      |> List.fold_left (fun acc n -> walk acc (Filename.concat path n)) acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.fold_left walk [] roots |> List.rev

(* [path] against the cwd, with "." and ".." segments resolved. *)
let absolute path =
  (if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
   else path)
  |> String.split_on_char '/'
  |> List.fold_left
       (fun up seg ->
         match (seg, up) with
         | ("" | "."), _ -> up
         | "..", _ :: rest -> rest
         | "..", [] -> []
         | _ -> seg :: up)
       []
  |> List.rev |> String.concat "/" |> ( ^ ) "/"

(* The repo-relative form of a path, as findings, roots and the
   baseline spell it: an absolute path beneath the cmt root's source
   root relative to it, any other path minus its "." and ".."
   segments. *)
let relative_to cmt_root =
  let base = absolute (Cmt_loader.source_root cmt_root) ^ "/" in
  fun path ->
    let p = absolute path in
    if Filename.is_relative path || not (String.starts_with ~prefix:base p)
    then Cmt_loader.normalize path
    else String.sub p (String.length base) (String.length p - String.length base)

let lint_roots ?only ?(cmt_root = ".") roots =
  let relative = relative_to cmt_root in
  let files = collect roots in
  let files =
    match only with
    | None -> files
    | Some allow ->
      List.filter
        (fun f ->
          let f = relative f in
          List.exists (fun e -> selects e f) allow)
        files
  in
  List.concat_map
    (fun path -> Engine.lint_file ~display:(relative path) path)
    files
  |> List.sort Rule.compare_finding

(* The deep pass analyzes the whole build universe; findings are then
   narrowed to the requested roots (and [--quick] selection) so the two
   passes agree about what is in scope. *)
let deep_findings cfg =
  if not cfg.deep then []
  else begin
    let loaded = Cmt_loader.load ~root:cfg.cmt_root () in
    (match loaded.Cmt_loader.stale with
    | [] -> ()
    | stale when not cfg.allow_stale ->
      raise
        (Cmt_loader.Cmt_error
           (Printf.sprintf
              "stale typedtrees (source newer than its .cmt): %s — rebuild \
               with `dune build @check` (or `make lint-deep`)"
              (String.concat ", " stale)))
    | _ -> ());
    let in_roots =
      let roots = List.map (relative_to cfg.cmt_root) cfg.roots in
      fun file -> List.exists (fun r -> selects r file) roots
    in
    let selected file =
      match cfg.only with
      | None -> true
      | Some allow -> List.exists (fun e -> selects e file) allow
    in
    Deep.analyze (Callgraph.build loaded)
    |> List.filter (fun f -> in_roots f.Rule.file && selected f.Rule.file)
  end

let load_baseline path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go acc
            else
              (* Key = first two whitespace-separated fields
                 ("RULE file:line:col"); anything after is commentary. *)
              let key =
                match String.split_on_char ' ' line with
                | rule :: site :: _ -> rule ^ " " ^ site
                | _ -> line
              in
              go (key :: acc)
        in
        go [])
  end

let apply_baseline ~keys findings =
  List.filter (fun f -> not (List.mem (Rule.baseline_key f) keys)) findings

let write_baseline path findings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "# insp_lint baseline: grandfathered findings, one per line.\n\
         # Format: RULE file:line:col [commentary].  Regenerate with\n\
         # insp_lint --update-baseline; shrink it, never grow it.\n";
      List.iter
        (fun f ->
          Printf.fprintf oc "%s %s\n" (Rule.baseline_key f) f.Rule.message)
        findings)

let print_findings fmt findings =
  (match fmt with
  | Text | Json -> ()
  | Csv -> print_endline Rule.csv_header);
  List.iter
    (fun f ->
      match fmt with
      | Text -> Format.printf "%a@." Rule.pp_text f
      | Csv -> Format.printf "%a@." Rule.pp_csv f
      | Json -> Format.printf "%a@." Rule.pp_json f)
    findings

let run cfg =
  let all () =
    let shallow = lint_roots ?only:cfg.only ~cmt_root:cfg.cmt_root cfg.roots in
    let deep = deep_findings cfg in
    List.sort Rule.compare_finding (shallow @ deep)
  in
  match all () with
  | exception Engine.Parse_error msg ->
    prerr_endline ("insp_lint: " ^ msg);
    2
  | exception Cmt_loader.Cmt_error msg ->
    prerr_endline ("insp_lint: " ^ msg);
    2
  | exception Sys_error msg ->
    prerr_endline ("insp_lint: " ^ msg);
    2
  | findings ->
    if cfg.update_baseline then begin
      match cfg.baseline with
      | None ->
        prerr_endline "insp_lint: --update-baseline needs --baseline FILE";
        2
      | Some path ->
        write_baseline path findings;
        Printf.eprintf "insp_lint: wrote %d finding(s) to %s\n"
          (List.length findings) path;
        0
    end
    else begin
      let keys =
        match cfg.baseline with None -> [] | Some p -> load_baseline p
      in
      let fresh = apply_baseline ~keys findings in
      print_findings cfg.format fresh;
      if fresh = [] then 0
      else begin
        Printf.eprintf
          "insp_lint: %d new finding(s) (%d grandfathered in the baseline)\n"
          (List.length fresh)
          (List.length findings - List.length fresh);
        1
      end
    end
