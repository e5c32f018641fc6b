type size_regime = Small | Large | Custom_sizes of float * float

type freq_regime = High | Low | Custom of float

type t = {
  n_operators : int;
  alpha : float;
  sizes : size_regime;
  freq : freq_regime;
  n_object_types : int;
  n_servers : int;
  min_copies : int;
  max_copies : int;
  rho : float;
  base_work : float;
  work_factor : float;
  seed : int;
}

let default =
  {
    n_operators = 60;
    alpha = 0.9;
    sizes = Small;
    freq = High;
    n_object_types = 15;
    n_servers = 6;
    min_copies = 1;
    max_copies = 2;
    rho = 1.0;
    base_work = 8000.0;
    work_factor = 0.19;
    seed = 1;
  }

let make ?(alpha = default.alpha) ?(sizes = default.sizes)
    ?(freq = default.freq) ?(n_object_types = default.n_object_types)
    ?(n_servers = default.n_servers) ?(min_copies = default.min_copies)
    ?(max_copies = default.max_copies) ?rho ?(base_work = default.base_work)
    ?(work_factor = default.work_factor) ?(seed = default.seed) ~n_operators
    () =
  let rho =
    match (rho, sizes) with
    | Some r, _ -> r
    | None, (Small | Custom_sizes _) -> 1.0
    | None, Large -> 0.1
  in
  {
    n_operators;
    alpha;
    sizes;
    freq;
    n_object_types;
    n_servers;
    min_copies;
    max_copies;
    rho;
    base_work;
    work_factor;
    seed;
  }

let size_range = function
  | Small -> (5.0, 30.0)
  | Large -> (450.0, 530.0)
  | Custom_sizes (lo, hi) ->
    if lo <= 0.0 || hi < lo then invalid_arg "Config.size_range: bad range";
    (lo, hi)

(* Scale preset (DESIGN.md §16): object sizes and base work shrunk so
   that the aggregate data stream of a tree orders of magnitude larger
   than the paper's 60–200 operators still fits the unchanged dell_2008
   catalog and the 1000 MB/s processor link.  The root operator's output
   carries the whole leaf mass (~0.003 MB x (N+1) in expectation), which
   stays under the processor link up to N ~ 300k, and one operator costs
   ~2000 Mops x rho, ~23 per top-catalog CPU. *)
let scale ?(seed = default.seed) ~n_operators () =
  make ~sizes:(Custom_sizes (0.001, 0.005)) ~base_work:2000.0 ~seed
    ~n_operators ()

let frequency = function
  | High -> 0.5
  | Low -> 0.02
  | Custom f ->
    if f <= 0.0 then invalid_arg "Config.frequency: non-positive frequency";
    f

let size_name = function
  | Small -> "small"
  | Large -> "large"
  | Custom_sizes (lo, hi) -> Printf.sprintf "custom(%g..%g)" lo hi

let pp ppf t =
  Format.fprintf ppf
    "N=%d alpha=%.2f sizes=%s freq=%.3f/s rho=%.2f objects=%d servers=%d \
     copies=%d..%d seed=%d"
    t.n_operators t.alpha (size_name t.sizes) (frequency t.freq) t.rho t.n_object_types
    t.n_servers t.min_copies t.max_copies t.seed
