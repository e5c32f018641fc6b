type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable length : int;
  mutable next_seq : int;
}

let create () = { data = [||]; length = 0; next_seq = 0 }

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h.data.(i) h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < h.length && less h.data.(left) h.data.(!smallest) then smallest := left;
  if right < h.length && less h.data.(right) h.data.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let grow h =
  let capacity = Array.length h.data in
  if h.length = capacity then begin
    let new_capacity = max 8 (2 * capacity) in
    (* Placeholder slot reuses an existing entry; it is overwritten before
       becoming reachable. *)
    let filler =
      if capacity = 0 then None else Some h.data.(0)
    in
    match filler with
    | None -> h.data <- [||]
    | Some f ->
      let data = Array.make new_capacity f in
      Array.blit h.data 0 data 0 h.length;
      h.data <- data
  end

let push h key value =
  let entry = { key; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  if Array.length h.data = 0 then h.data <- Array.make 8 entry else grow h;
  h.data.(h.length) <- entry;
  h.length <- h.length + 1;
  sift_up h (h.length - 1)

let peek h =
  if h.length = 0 then None
  else begin
    let e = h.data.(0) in
    Some (e.key, e.value)
  end

let pop h =
  if h.length = 0 then None
  else begin
    let e = h.data.(0) in
    h.length <- h.length - 1;
    if h.length > 0 then begin
      h.data.(0) <- h.data.(h.length);
      sift_down h 0
    end;
    Some (e.key, e.value)
  end
