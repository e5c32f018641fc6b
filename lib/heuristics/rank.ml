type t = { order : int array; nxt : int array }

(* IEEE bits of a key >= 0 as an int: with the sign bit clear, the
   63 low bits order like the values.  The sign bit does not fit the
   int, so -0.0 (the one such key that sets it) reads as +0.0 and the
   two tie, as under [Float.compare]. *)
let bits x = Int64.to_int (Int64.bits_of_float x)

(* A stable LSD radix sort of the indices, from index order, one digit
   per pass into buckets laid out largest digit first.  Digits are about
   log2 n bits wide (at most 11), so the count array holds at most n
   words (n >= 2); a pass whose digit is the same for every key moves
   nothing and is skipped.  The spare buffer becomes the skip
   pointers. *)
let descending key =
  let n = Array.length key in
  let width = ref 1 in
  while !width < 11 && 1 lsl (!width + 1) <= n do incr width done;
  let width = !width in
  let mask = (1 lsl width) - 1 in
  let count = Array.make (mask + 1) 0 in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let shift = ref 0 in
  while n > 1 && !shift < 63 do
    let s = !src and sh = !shift in
    Array.fill count 0 (mask + 1) 0;
    for j = 0 to n - 1 do
      let d = (bits key.(s.(j)) lsr sh) land mask in
      count.(d) <- count.(d) + 1
    done;
    if count.((bits key.(s.(0)) lsr sh) land mask) < n then begin
      let start = ref 0 in
      for d = mask downto 0 do
        let c = count.(d) in
        count.(d) <- !start;
        start := !start + c
      done;
      let t = !dst in
      for j = 0 to n - 1 do
        let i = s.(j) in
        let d = (bits key.(i) lsr sh) land mask in
        t.(count.(d)) <- i;
        count.(d) <- count.(d) + 1
      done;
      dst := s;
      src := t
    end;
    shift := sh + width
  done;
  let nxt = !dst in
  Array.iteri (fun i _ -> nxt.(i) <- i) nxt;
  { order = !src; nxt }

let element t pos = t.order.(pos)

let reset t = Array.iteri (fun i _ -> t.nxt.(i) <- i) t.nxt

let first t ~alive pos =
  let n = Array.length t.order in
  let p = ref pos in
  let stop = ref false in
  (* Chase [nxt] jumps and dead singles until an alive element (or the
     end).  [nxt.(i) = j > i] certifies that positions i..j-1 held dead
     elements when the jump was written; [reset] must be called if a
     dead element can come back to life. *)
  while not !stop do
    if !p >= n then stop := true
    else begin
      let q = t.nxt.(!p) in
      if q > !p then p := q
      else if alive t.order.(!p) then stop := true
      else p := !p + 1
    end
  done;
  let res = !p in
  (* Path compression: point the whole chased chain at the result. *)
  let q = ref pos in
  while !q < res && !q < n do
    let step =
      let k = t.nxt.(!q) in
      if k > !q then k else !q + 1
    in
    t.nxt.(!q) <- res;
    q := step
  done;
  res
