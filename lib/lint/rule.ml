type t = D1 | D2 | D3 | D4 | D5 | D6 | D7 | F1 | P1 | P2 | P3 | T1 | T2 | T3

let all = [ D1; D2; D3; D4; D5; D6; D7; F1; P1; P2; P3; T1; T2; T3 ]

let id = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | D5 -> "D5"
  | D6 -> "D6"
  | D7 -> "D7"
  | F1 -> "F1"
  | P1 -> "P1"
  | P2 -> "P2"
  | P3 -> "P3"
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "d1" -> Some D1
  | "d2" -> Some D2
  | "d3" -> Some D3
  | "d4" -> Some D4
  | "d5" -> Some D5
  | "d6" -> Some D6
  | "d7" -> Some D7
  | "f1" -> Some F1
  | "p1" -> Some P1
  | "p2" -> Some P2
  | "p3" -> Some P3
  | "t1" -> Some T1
  | "t2" -> Some T2
  | "t3" -> Some T3
  | _ -> None

let synopsis = function
  | D1 -> "Stdlib.Random is nondeterministic; use the seeded Insp_util.Prng"
  | D2 -> "Hashtbl iteration order is arbitrary; sort results built from it"
  | D3 ->
    "wall-clock reads are nondeterministic; timing belongs in bench/ or the \
     blessed Insp_obs.Clock"
  | D4 ->
    "Domain.spawn outside the deterministic sweep runner \
     (Insp_experiments.Par_sweep) risks nondeterministic interleavings"
  | D5 ->
    "direct printing inside an engine library; decision output must go \
     through Obs.Journal"
  | D6 ->
    "unsorted Hashtbl iteration inside an engine library; iterate a \
     key-sorted snapshot so hash order cannot reach observable state"
  | D7 ->
    "GC state read outside the allocation profiler; attribution goes \
     through Obs.prof_enter/prof_exit so lib/obs/prof.ml stays the one \
     sanctioned Gc reader"
  | F1 -> "float equality/compare needs a tolerance (Insp_util.Stats.approx_eq)"
  | P1 -> "partial stdlib call may raise; match totally or suppress with a reason"
  | P2 -> "every lib module ships an explicit interface (.mli)"
  | P3 ->
    "linear list search (List.assoc/List.find family) in a hot-path library; \
     index by int id (arena/SoA column, array) or justify the bounded scan"
  | T1 ->
    "static race: a Domain.spawn closure transitively reaches top-level \
     mutable state shared across domains"
  | T2 ->
    "determinism taint: an engine-library entry point transitively reaches \
     a nondeterministic primitive (hash-order iteration, Random, wall clock)"
  | T3 ->
    "dead export: an .mli-declared value referenced by no other non-test \
     compilation unit"

type finding = {
  rule : t;
  file : string;
  line : int;
  col : int;
  message : string;
}

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (id a.rule) (id b.rule)

let pp_text ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col (id f.rule)
    f.message

let csv_escape s =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') s
  in
  if not needs_quote then s
  else "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""

let csv_header = "rule,file,line,col,message"

let pp_csv ppf f =
  Format.fprintf ppf "%s,%s,%d,%d,%s" (id f.rule) (csv_escape f.file) f.line
    f.col (csv_escape f.message)

(* One canonical-JSON object per finding (Obs.Jsonc escaping and field
   order), so CI and editors can consume reports line-by-line without
   parsing the text format. *)
let to_json f =
  Insp_obs.Jsonc.obj
    [
      ("rule", Insp_obs.Jsonc.string (id f.rule));
      ("file", Insp_obs.Jsonc.string f.file);
      ("line", Insp_obs.Jsonc.int f.line);
      ("col", Insp_obs.Jsonc.int f.col);
      ("message", Insp_obs.Jsonc.string f.message);
    ]

let pp_json ppf f = Format.pp_print_string ppf (to_json f)

let baseline_key f = Printf.sprintf "%s %s:%d:%d" (id f.rule) f.file f.line f.col
