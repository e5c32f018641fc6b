type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

(* One empty-list contract for the whole module: every aggregate raises
   [Invalid_argument "Stats.<fn>: empty list"].  A silent 0.0 (the old
   [mean]/[variance] behaviour) turns a "no feasible seeds" bug into a
   plausible-looking number downstream. *)
let nonempty name = function
  | [] -> invalid_arg ("Stats." ^ name ^ ": empty list")
  | _ -> ()

(* NaN poisons every aggregate silently (comparisons are all false, sums
   are NaN); the summary entry points reject it loudly instead. *)
let reject_nan name samples =
  if List.exists Float.is_nan samples then
    invalid_arg ("Stats." ^ name ^ ": NaN sample")

let mean samples =
  nonempty "mean" samples;
  List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

let variance samples =
  nonempty "variance" samples;
  let n = List.length samples in
  (* A single sample carries no spread information: the unbiased
     estimator is undefined (n - 1 = 0); by convention we return 0. *)
  if n < 2 then 0.0
  else begin
    let m = mean samples in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 samples in
    sq /. float_of_int (n - 1)
  end

let stddev samples = sqrt (variance samples)

let fold_nonempty name f = function
  | [] -> invalid_arg ("Stats." ^ name ^ ": empty list")
  | x :: rest -> List.fold_left f x rest

let minimum samples = fold_nonempty "minimum" Float.min samples
let maximum samples = fold_nonempty "maximum" Float.max samples

(* Float.compare, not polymorphic compare: gives NaN a specified total
   order (NaN sorts below everything) instead of the unspecified result
   polymorphic compare produces on boxed floats. *)
let sorted samples =
  let arr = Array.of_list samples in
  Array.sort Float.compare arr;
  arr

let median samples =
  nonempty "median" samples;
  let arr = sorted samples in
  let n = Array.length arr in
  if n mod 2 = 1 then arr.(n / 2)
  else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let percentile p samples =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  nonempty "percentile" samples;
  reject_nan "percentile" samples;
  let arr = sorted samples in
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let summarize samples =
  nonempty "summarize" samples;
  reject_nan "summarize" samples;
  {
    count = List.length samples;
    mean = mean samples;
    stddev = stddev samples;
    min = minimum samples;
    max = maximum samples;
    median = median samples;
  }

let geometric_mean samples =
  nonempty "geometric_mean" samples;
  let log_sum =
    List.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive sample";
        acc +. log x)
      0.0 samples
  in
  exp (log_sum /. float_of_int (List.length samples))

let approx_eq ?(rel = 1e-9) ?(abs = 1e-12) a b =
  let d = Float.abs (a -. b) in
  d <= abs || d <= rel *. Float.max (Float.abs a) (Float.abs b)
