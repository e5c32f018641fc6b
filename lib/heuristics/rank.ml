type t = { order : int array; nxt : int array }

let of_order order =
  { order = Array.copy order; nxt = Array.init (Array.length order) Fun.id }

let length t = Array.length t.order
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
