type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 finaliser (Steele, Lea & Flood, OOPSLA'14). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next_int64 t }

(* 53 uniform mantissa bits, as in Java's SplittableRandom. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float_range t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let mask = Int64.of_int max_int in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (next_int64 t) mask) in
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then draw () else r
  in
  draw ()

let int_range t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Prng.choose_list: empty list"
  | _ :: _ ->
    (* Same index as [List.nth l (int t (length l))], so the stream of
       PRNG draws — and every seeded experiment — is unchanged. *)
    let arr = Array.of_list l in
    arr.(int t (Array.length arr))

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  assert (0 <= k && k <= n);
  let arr = Array.init n (fun i -> i) in
  shuffle_in_place t arr;
  Array.to_list (Array.sub arr 0 k)
