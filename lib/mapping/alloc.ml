type proc = {
  config : Insp_platform.Catalog.config;
  operators : int list;
  downloads : (int * int) list;
}

(* [host.(i)] is the processor of operator [i], -1 when unassigned;
   operators beyond the array are unassigned. *)
type t = { procs : proc array; host : int array }

let compare_download (k, l) (k', l') =
  let c = Int.compare k k' in
  if c <> 0 then c else Int.compare l l'

(* [List.sort_uniq cmp l] without the copy when [l] is already strictly
   increasing — the common case, since every producer emits sorted
   lists. *)
let sort_uniq cmp l =
  let rec sorted = function
    | a :: (b :: _ as rest) -> cmp a b < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  if sorted l then l else List.sort_uniq cmp l

let normalize_proc p =
  let operators = sort_uniq Int.compare p.operators in
  if List.length operators <> List.length p.operators then
    invalid_arg "Alloc.make: duplicate operator on one processor";
  (* Exact duplicate (object, server) entries are collapsed: they would
     double-count the same stream.  Two entries for the same object from
     different servers are kept — the checker flags them as
     [Duplicate_download] so the NIC double-count is visible instead of
     silently rejected here. *)
  let downloads = sort_uniq compare_download p.downloads in
  if operators == p.operators && downloads == p.downloads then p
  else { p with operators; downloads }

let make procs =
  let procs = Array.map normalize_proc procs in
  let n =
    Array.fold_left
      (fun acc p ->
        match p.operators with
        | i :: _ when i < 0 -> invalid_arg "Alloc.make: negative operator id"
        | ops -> List.fold_left (fun acc i -> max acc (i + 1)) acc ops)
      0 procs
  in
  let host = Array.make n (-1) in
  Array.iteri
    (fun u p ->
      List.iter
        (fun i ->
          if host.(i) >= 0 then
            invalid_arg "Alloc.make: operator assigned to two processors";
          host.(i) <- u)
        p.operators)
    procs;
  { procs; host }

let of_groups ~configs ~groups ~downloads =
  let n = Array.length configs in
  if Array.length groups <> n || Array.length downloads <> n then
    invalid_arg "Alloc.of_groups: array length mismatch";
  make
    (Array.init n (fun u ->
         { config = configs.(u); operators = groups.(u); downloads = downloads.(u) }))

let n_procs t = Array.length t.procs
let proc t u = t.procs.(u)
let procs t = Array.copy t.procs
let host t i = if i >= 0 && i < Array.length t.host then t.host.(i) else -1
let hosts t = t.host

let assignment t i =
  let u = host t i in
  if u < 0 then None else Some u

let operators_of t u = t.procs.(u).operators
let downloads_of t u = t.procs.(u).downloads
let all_downloads t =
  let acc = ref [] in
  Array.iteri
    (fun u p -> List.iter (fun (k, l) -> acc := (u, k, l) :: !acc) p.downloads)
    t.procs;
  List.rev !acc

let with_config t u config =
  let procs = Array.copy t.procs in
  procs.(u) <- { procs.(u) with config };
  { t with procs }

let with_configs t configs =
  if Array.length configs <> Array.length t.procs then
    invalid_arg "Alloc.with_configs: array length mismatch";
  let procs = Array.mapi (fun u p -> { p with config = configs.(u) }) t.procs in
  { t with procs }

let pp ppf t =
  Format.fprintf ppf "@[<v>%d processors@ " (Array.length t.procs);
  Array.iteri
    (fun u p ->
      Format.fprintf ppf "P%d (%a): ops {%s}, downloads {%s}@ " u
        Insp_platform.Catalog.pp_config p.config
        (String.concat ", " (List.map string_of_int p.operators))
        (String.concat ", "
           (List.map
              (fun (k, l) -> Printf.sprintf "o%d<-S%d" k l)
              p.downloads)))
    t.procs;
  Format.fprintf ppf "@]"
