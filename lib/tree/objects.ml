type t = { sizes : float array; freqs : float array }

let make ~sizes ~freqs =
  let n = Array.length sizes in
  if n = 0 then invalid_arg "Objects.make: empty catalog";
  if Array.length freqs <> n then
    invalid_arg "Objects.make: sizes and freqs length mismatch";
  Array.iter
    (fun s -> if s <= 0.0 then invalid_arg "Objects.make: non-positive size")
    sizes;
  Array.iter
    (fun f -> if f <= 0.0 then invalid_arg "Objects.make: non-positive freq")
    freqs;
  { sizes = Array.copy sizes; freqs = Array.copy freqs }

let uniform_freq ~sizes ~freq =
  make ~sizes ~freqs:(Array.make (Array.length sizes) freq)

let count t = Array.length t.sizes
let size t k = t.sizes.(k)
let freq t k = t.freqs.(k)
let rate t k = t.sizes.(k) *. t.freqs.(k)

let with_freq t freq =
  uniform_freq ~sizes:t.sizes ~freq
