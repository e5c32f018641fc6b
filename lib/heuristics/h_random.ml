module Prng = Insp_util.Prng
module Graph = Insp_tree.Graph

(* The unassigned operators as a Fenwick tree of 0/1 counts over ids
   (1-based: slot [i + 1] counts operator [i]).  The [k]-th smallest
   unassigned id is the element [Prng.choose_list] picks from the
   increasing unassigned list with the same draw, so the PRNG stream and
   every pick are those of rebuilding the list each round, in O(log n)
   per pick and per change instead of O(n) per round. *)
type pool = {
  sums : int array;
  top : int;  (* the highest power of two <= n, the descent's first step *)
  mutable count : int;
}

(* Every operator starts unassigned, and slot [i] sums the [i land -i]
   slots ending at it. *)
let pool n =
  let top = ref 1 in
  while 2 * !top <= n do
    top := 2 * !top
  done;
  { sums = Array.init (n + 1) (fun i -> i land -i); top = !top; count = n }

let update p op d =
  p.count <- p.count + d;
  let i = ref (op + 1) in
  while !i < Array.length p.sums do
    p.sums.(!i) <- p.sums.(!i) + d;
    i := !i + (!i land - !i)
  done

(* The unassigned id of rank [k] (from 0): descend to the longest prefix
   holding at most [k] of them; the next id is the one. *)
let kth p k =
  let pos = ref 0 and left = ref k and step = ref p.top in
  while !step > 0 do
    let next = !pos + !step in
    if next < Array.length p.sums && p.sums.(next) <= !left then begin
      pos := next;
      left := !left - p.sums.(next)
    end;
    step := !step / 2
  done;
  !pos

(* One round: draw an operator and buy for it.  A grouping sell
   releases its operators; a purchase assigns exactly the bought
   group's members.  Nothing else changes the pool. *)
let draw rng b pending on_release =
  let op = kth pending (Prng.int rng pending.count) in
  let bought = Common.acquire_with_grouping ~on_release b ~style:`Cheapest op in
  (match bought with
  | Ok gid -> List.iter (fun i -> update pending i (-1)) (Builder.members b gid)
  | Error _ -> ());
  bought

(* The rounds from round n on, which only a run that sells reaches.  A
   round whose pool holds one operator draws it whatever the stream
   says, so a stretch of such rounds is deterministic: once its state
   repeats ({!Common.next_round}) it fails as the budget would, at once.
   Seen: two groups trading one neighbour (paper N=100, alpha 0.9, seed 2). *)
let rec watched rng b pending on_release spend watch =
  if pending.count = 0 then Ok b
  else if not (spend ()) then Common.not_converged
  else if pending.count = 1 && not (Common.next_round watch) then
    Common.not_converged
  else begin
    if pending.count > 1 then Common.restart watch;
    match draw rng b pending on_release with
    | Ok _ -> watched rng b pending on_release spend watch
    | Error _ as e -> e
  end

let run rng g platform =
  let b = Builder.create g platform in
  let pending = pool (Graph.n_nodes g) in
  let on_release op = update pending op 1 in
  let spend = Common.round_budget b in
  let rec loop round =
    if pending.count = 0 then Ok b
    else if round = Array.length pending.sums - 1 then
      watched rng b pending on_release spend (Common.rounds b)
    else if not (spend ()) then Common.not_converged
    else
      match draw rng b pending on_release with
      | Ok _ -> loop (round + 1)
      | Error _ as e -> e
  in
  loop 0
