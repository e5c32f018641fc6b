(* Deterministic metric registry: counters, gauges and fixed-bucket
   histograms keyed by name, reported in *insertion order* so that two
   runs performing the same instrumented work produce byte-identical
   snapshots.  No clock, no PRNG: every recorded value is a pure
   function of the instrumented computation (DESIGN.md §10). *)

type histogram = {
  edges : float array;  (* ascending bucket upper bounds *)
  counts : int array;  (* length = edges + 1; last bucket is overflow *)
  mutable observations : int;
  mutable sum : float;
}

type metric =
  | Counter of { mutable count : int }
  | Gauge of { mutable value : float }
  | Histogram of histogram

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable names : string list;  (* insertion order, reversed *)
}

let create () = { tbl = Hashtbl.create 32; names = [] }

(* Values observed before the first bucket edge would silently vanish
   without the implicit overflow bucket; edges cover the small-count
   regimes the engines record (probe batches, pivots, group sizes). *)
let default_edges = [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 500.0 |]

let register t name metric =
  Hashtbl.replace t.tbl name metric;
  t.names <- name :: t.names

let kind_error name = invalid_arg ("Metrics: kind mismatch for " ^ name)

(* [Hashtbl.find], not [find_opt]: counters sit on hot paths, and the
   [Some] of a hit would cost two words per call. *)
let incr ?(by = 1) t name =
  match Hashtbl.find t.tbl name with
  | Counter c -> c.count <- c.count + by
  | Gauge _ | Histogram _ -> kind_error name
  | exception Not_found -> register t name (Counter { count = by })

let set_gauge t name v =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g.value <- v
  | Some (Counter _ | Histogram _) -> kind_error name
  | None -> register t name (Gauge { value = v })

let bucket_of edges v =
  let n = Array.length edges in
  let rec find i = if i >= n || v <= edges.(i) then i else find (i + 1) in
  find 0

let observe ?edges t name v =
  let h =
    match Hashtbl.find_opt t.tbl name with
    | Some (Histogram h) -> h
    | Some (Counter _ | Gauge _) -> kind_error name
    | None ->
      let edges =
        match edges with Some e -> Array.copy e | None -> default_edges
      in
      if Array.length edges = 0 then
        invalid_arg "Metrics.observe: empty bucket edges";
      for i = 1 to Array.length edges - 1 do
        if edges.(i) <= edges.(i - 1) then
          invalid_arg "Metrics.observe: bucket edges must be ascending"
      done;
      let h =
        {
          edges;
          counts = Array.make (Array.length edges + 1) 0;
          observations = 0;
          sum = 0.0;
        }
      in
      register t name (Histogram h);
      h
  in
  let b = bucket_of h.edges v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.observations <- h.observations + 1;
  h.sum <- h.sum +. v

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> Some c.count
  | Some (Gauge _ | Histogram _) | None -> None

(* Merge is what makes domain-parallel sweeps equivalent to sequential
   ones: each cell records into its own registry and the runner absorbs
   them in canonical cell order, so the merged registry's insertion
   order — and therefore the snapshot — is independent of how the work
   was scheduled.  Counters merge even at 0 so name registration (and
   with it insertion order) is preserved. *)
let merge ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find_opt src.tbl name with
      | None -> assert false (* names only ever grows with tbl *)
      | Some (Counter c) -> incr ~by:c.count into name
      | Some (Gauge g) -> set_gauge into name g.value
      | Some (Histogram h) -> (
        match Hashtbl.find_opt into.tbl name with
        | Some (Histogram h') ->
          if h'.edges <> h.edges then
            invalid_arg ("Metrics.merge: histogram edges mismatch for " ^ name);
          Array.iteri (fun i c -> h'.counts.(i) <- h'.counts.(i) + c) h.counts;
          h'.observations <- h'.observations + h.observations;
          h'.sum <- h'.sum +. h.sum
        | Some (Counter _ | Gauge _) -> kind_error name
        | None ->
          register into name
            (Histogram
               {
                 edges = Array.copy h.edges;
                 counts = Array.copy h.counts;
                 observations = h.observations;
                 sum = h.sum;
               })))
    (List.rev src.names)

let snapshot t =
  List.rev_map
    (fun name ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter c) -> (name, Counter_v c.count)
      | Some (Gauge g) -> (name, Gauge_v g.value)
      | Some (Histogram h) -> (name, Histogram_v h)
      | None -> assert false (* names only ever grows with tbl *))
    t.names
