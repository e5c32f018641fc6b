module Graph = Insp_tree.Graph
module Objects = Insp_tree.Objects
module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers
module Arena = Insp_util.Arena
module Obs = Insp_obs.Obs

(* One flat mutable state (DESIGN.md §16.1): per-processor sorted rows
   of plain arrays, edited in place.  The hot path reads every float
   from a float array (the application's own work and output arrays,
   shared) because a float returned from or passed to a function of
   another compilation unit is boxed; for the same reason, helpers take
   operator indices, and the few that take a float weight are inlined.  Mutations and probes
   bracket their bodies with explicit Obs.prof_enter/prof_exit pairs
   (DESIGN.md §17), free without a profiling sink.

   The ledger reads an operator-graph view (DESIGN.md §8): a producer's
   output reaches each other processor as one stream, at the fastest
   rate of its consumers there.  That maximum is recomputed by scanning
   the producer's consumers, O(out-degree), so no per-stream state is
   kept.  An unassigned neighbour counts as its own stream at its own
   rate.  A tree is the case where every stream has one consumer: a
   stream appears at the rate its edge brings and vanishes with it. *)

type proc_id = int

(* Rows live in per-ledger slabs.  A row is the region
   [off, off + capacity) of its slab's columns with [len] entries in
   use, sorted by [key], ties broken by [aux]; [fa]/[fb] are float
   payload columns, empty in the int-only slab.  Capacities come in
   power-of-two size classes.  A row that outgrows its region moves to
   one of the next class and frees the old one onto its class's free
   list (chained through [key]), where the next row of that size reuses
   it: rows recycle each other's regions instead of leaving garbage, so
   a steady-state commit allocates nothing. *)
type slab = {
  mutable key : int array;
  mutable aux : int array;
  mutable fa : float array;
  mutable fb : float array;
  mutable top : int;  (* first never-used index *)
  mutable free : int array;  (* per size class: first free region, -1 if none *)
}

(* [cls]: size class, -1 while the row owns no region. *)
type row = { s : slab; mutable off : int; mutable cls : int; mutable len : int }

(* One processor's state, created when it first receives an operator or
   a download; until then (and once removed) its slot holds the shared,
   never-mutated [empty].  [loads] holds the scalar loads at the indices
   below, then the link load from each server; [link_entries] counts the
   download entries behind each link load. *)
type proc = {
  some : proc_id option;  (* [Some id], shared by every [assignment] answer *)
  mutable ops : int list;  (* [members] as a list, valid while [ops_fresh] *)
  mutable ops_fresh : bool;
  loads : float array;
  link_entries : int array;
  members : row;  (* operators; aux unused *)
  needs : row;  (* needed object types; aux = #hosted operators needing it *)
  dls : row;  (* download plan (object type, server); aux = server *)
  flows : row;
      (* neighbour processors; aux = #edges crossing the pair, fa = out_w
         (streams from producers living here to the neighbour), fb = in_w
         (the opposite direction) *)
}

let compute_ = 0
let comm_in_ = 1
let comm_out_ = 2
let need_rate_ = 3  (* download rate of the distinct needed objects *)
let dl_rate_ = 4  (* total planned download rate (MB/s) *)
let link_ = 5

type t = {
  g : Graph.t;
  unshared : bool;  (* no node has two consumers: every stream has one *)
  platform : Platform.t;
  ints : slab;  (* members, needs and download rows *)
  floats : slab;  (* flow rows *)
  rates : float array;  (* node i runs at rates.(i * stride), the view's *)
  stride : int;
  work : float array;  (* the view's *)
  output : float array;  (* the view's *)
  rate : float array;  (* download rate per object type *)
  arena : Arena.t;  (* processor id allocator + generation stamps *)
  host : int array;  (* operator -> processor, -1 when unassigned *)
  mutable configs : Catalog.config array;  (* by id *)
  mutable procs : proc array;  (* by id *)
  empty : proc;
  card_load : float array;  (* per-server aggregate download load *)
  card_entries : int array;
  (* probe scratch: the would-be loads in [would]; pair-flow deltas
     towards [pv.(j)], j < [pn], ascending, weights in [pw.(j)] *)
  would : float array;
  mutable pv : int array;
  mutable pw : float array;
  mutable pn : int;
}

type probe = { demand : Demand.t; pair_flows : (proc_id * float) list }

let slab ~floats =
  let f = if floats then Array.make 8 0.0 else [||] in
  let key = Array.make 8 0 and aux = Array.make 8 0 in
  { key; aux; fa = f; fb = Array.copy f; top = 0; free = Array.make 8 (-1) }

let row s = { s; off = 0; cls = -1; len = 0 }

let new_proc ~ints ~floats ~n_servers id =
  { some = (if id < 0 then None else Some id); ops = []; ops_fresh = true;
    loads = Array.make (link_ + n_servers) 0.0;
    link_entries = Array.make n_servers 0;
    members = row ints; needs = row ints; dls = row ints; flows = row floats }

(* ------------------------------------------------------------------ *)
(* Sorted rows                                                         *)

let capacity cls = 1 lsl cls

(* [a] grown to length [n], padded with [z]. *)
let extend a n z =
  let b = Array.make n z in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A free region of size class [c]: recycled, or carved from the top. *)
let region s c =
  if c >= Array.length s.free then s.free <- extend s.free (c + 1) (-1);
  let off = s.free.(c) in
  if off >= 0 then begin
    s.free.(c) <- s.key.(off);
    off
  end
  else begin
    let off = s.top in
    s.top <- off + capacity c;
    if s.top > Array.length s.key then begin
      let n = max s.top (2 * Array.length s.key) in
      s.key <- extend s.key n 0;
      s.aux <- extend s.aux n 0;
      if Array.length s.fa > 0 then begin
        s.fa <- extend s.fa n 0.0;
        s.fb <- extend s.fb n 0.0
      end
    end;
    off
  end

let release r =
  if r.cls >= 0 then begin
    r.s.key.(r.off) <- r.s.free.(r.cls);
    r.s.free.(r.cls) <- r.off;
    r.off <- 0;
    r.cls <- -1;
    r.len <- 0
  end

(* Positions are absolute slab indices.  First position whose entry is
   >= (k, v); [v = min_int] searches by key alone. *)
let search r k v =
  let lo = ref r.off and hi = ref (r.off + r.len) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let km = r.s.key.(mid) in
    if km < k || (km = k && r.s.aux.(mid) < v) then lo := mid + 1 else hi := mid
  done;
  !lo

let at r p k = p < r.off + r.len && r.s.key.(p) = k

let has r k = at r (search r k min_int) k

(* Copies entry [src] over entry [dst] — explicit stores rather than
   [Array.blit]: a statically typed int/float array store needs no write
   barrier. *)
let copy s src dst =
  s.key.(dst) <- s.key.(src);
  s.aux.(dst) <- s.aux.(src);
  if Array.length s.fa > 0 then begin
    s.fa.(dst) <- s.fa.(src);
    s.fb.(dst) <- s.fb.(src)
  end

(* Inserts (k, v) at position [p] (from [search]) with zero float
   payload and returns the entry's position, which moves when the row
   does. *)
let insert r p k v =
  let s = r.s in
  let p =
    if r.cls >= 0 && r.len < capacity r.cls then p
    else begin
      let off = region s (r.cls + 1) in
      for j = 0 to r.len - 1 do
        copy s (r.off + j) (off + j)
      done;
      let p = off + (p - r.off) and len = r.len and cls = r.cls + 1 in
      release r;
      r.off <- off;
      r.cls <- cls;
      r.len <- len;
      p
    end
  in
  for j = r.off + r.len downto p + 1 do
    copy s (j - 1) j
  done;
  if Array.length s.fa > 0 then begin
    s.fa.(p) <- 0.0;
    s.fb.(p) <- 0.0
  end;
  s.key.(p) <- k;
  s.aux.(p) <- v;
  r.len <- r.len + 1;
  p

let delete r p =
  for j = p to r.off + r.len - 2 do
    copy r.s (j + 1) j
  done;
  r.len <- r.len - 1

let keys r = List.init r.len (fun j -> r.s.key.(r.off + j))

(* ------------------------------------------------------------------ *)
(* Processors                                                          *)

let create g platform =
  let n_servers = Servers.n_servers platform.Platform.servers in
  let ints = slab ~floats:false and floats = slab ~floats:true in
  let objects = g.Graph.objects in
  let rate = Array.make (Objects.count objects) 0.0 in
  for k = 0 to Array.length rate - 1 do
    rate.(k) <- Objects.rate objects k
  done;
  let empty = new_proc ~ints ~floats ~n_servers (-1) in
  {
    g; platform; ints; floats; rate; empty;
    unshared = g.Graph.unshared;
    rates = g.Graph.rates;
    stride = g.Graph.rate_stride;
    work = g.Graph.work;
    output = g.Graph.output;
    arena = Arena.create ();
    host = Array.make (Graph.n_nodes g) (-1);
    configs = Array.make 16 (Catalog.cheapest platform.Platform.catalog);
    procs = Array.make 16 empty;
    card_load = Array.make n_servers 0.0;
    card_entries = Array.make n_servers 0;
    would = Array.make (link_ + n_servers) 0.0;
    pv = Array.make 16 0; pw = Array.make 16 0.0; pn = 0;
  }

(* Evaluations/s of node [i]. *)
let[@inline] rate t i = t.rates.(i * t.stride)

let check_live t u =
  if not (Arena.is_live t.arena u) then invalid_arg "Ledger: dead processor id"

let proc t u =
  check_live t u;
  t.procs.(u)

let proc_ids t = Arena.live_ids t.arena
let mem_proc t u = Arena.is_live t.arena u
let generation t u = Arena.generation t.arena u

(* Every mutation of a processor's observable state bumps its stamp, so
   cached probe verdicts keyed by (id, generation) invalidate exactly
   when the probed state could have changed — including flow updates
   caused by a *neighbour's* membership edit. *)
let bump t u = Arena.touch t.arena u

let config t u =
  check_live t u;
  t.configs.(u)

let set_config t u cfg =
  check_live t u;
  t.configs.(u) <- cfg;
  bump t u

(* [u]'s state, created on its first mutation. *)
let materialize t u =
  let p = t.procs.(u) in
  if p != t.empty then p
  else begin
    let n_servers = Array.length t.card_load in
    let p = new_proc ~ints:t.ints ~floats:t.floats ~n_servers u in
    t.procs.(u) <- p;
    p
  end

(* Built once per membership change: callers may read a group's members
   many times between edits. *)
let operators_of t u =
  let p = proc t u in
  if not p.ops_fresh then begin
    p.ops <- keys p.members;
    p.ops_fresh <- true
  end;
  p.ops

let assignment t i =
  let u = t.host.(i) in
  if u < 0 then None else t.procs.(u).some

let downloads_list p =
  let r = p.dls in
  List.init r.len (fun j -> (r.s.key.(r.off + j), r.s.aux.(r.off + j)))
let add_proc t cfg =
  let id = Arena.alloc t.arena in
  if id >= Array.length t.procs then begin
    let n = 2 * id in
    t.procs <- extend t.procs n t.empty;
    t.configs <- extend t.configs n cfg
  end;
  t.procs.(id) <- t.empty;
  t.configs.(id) <- cfg;
  id

(* ------------------------------------------------------------------ *)
(* Pair-flow bookkeeping                                               *)

(* Position of neighbour [v] in row [r], inserted empty when absent. *)
let slot r v =
  let p = search r v min_int in
  if at r p v then p else insert r p v 0

(* Adds [w] to the stream flow from [src] to [dst] and [d] to the
   number of edges crossing the pair: [d = 1] when an edge starts
   crossing, [-1] when it stops.  [w] is the stream's change, signed, so
   adding it on a leave is bit-identical to subtracting the join's.  An
   entry is dropped exactly when its edge count empties, which kills
   float drift. *)
let[@inline] edge_flow t ~src ~dst w d =
  let s = t.floats in
  let r = t.procs.(src).flows in
  let p = slot r dst in
  s.fa.(p) <- s.fa.(p) +. w;
  s.aux.(p) <- s.aux.(p) + d;
  if s.aux.(p) <= 0 then delete r p;
  let r = t.procs.(dst).flows in
  let p = slot r src in
  s.fb.(p) <- s.fb.(p) +. w;
  s.aux.(p) <- s.aux.(p) + d;
  if s.aux.(p) <= 0 then delete r p;
  bump t src;
  bump t dst

let pair_flow t u v =
  let r = t.procs.(u).flows in
  let p = search r v min_int in
  if at r p v then r.s.fa.(p) +. r.s.fb.(p) else 0.0

let neighbours t u = keys (proc t u).flows

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)

(* The consumer of [j] hosted on [u], other than [skip], that sets the
   stream's rate: the fastest, the first in id order among equals; [-1]
   when none.  O(out-degree).  [Graph.fastest] without its closure, so
   a commit allocates nothing. *)
let top t j u ~skip =
  let { Graph.cons_start; cons; _ } = t.g and best = ref (-1) in
  for x = cons_start.(j) to cons_start.(j + 1) - 1 do
    let c = cons.(x) in
    if c <> skip && t.host.(c) = u && (!best < 0 || rate t c > rate t !best) then
      best := c
  done;
  !best

(* Whether one of the consumers of [j] before position [x] of its row
   is hosted on [u]: a stream is charged at its first consumer on the
   destination. *)
let rec hosted_before t j u x =
  x > t.g.Graph.cons_start.(j)
  && (t.host.(t.g.Graph.cons.(x - 1)) = u || hosted_before t j u (x - 1))

(* ------------------------------------------------------------------ *)
(* Operator placement deltas                                           *)

(* [f] on the distinct leaves of operator [i], ascending.  A validated
   tree or DAG gives a node at most two leaves. *)
let iter_leaves f t p q i =
  let { Graph.leaf_start; leaf; _ } = t.g in
  let x = leaf_start.(i) in
  match leaf_start.(i + 1) - x with
  | 0 -> ()
  | 1 -> f t p q leaf.(x)
  | 2 ->
    let a = leaf.(x) and b = leaf.(x + 1) in
    if a < b then (f t p q a; f t p q b)
    else if b < a then (f t p q b; f t p q a)
    else f t p q a
  | _ -> assert false (* arity checked at construction *)

(* Needed-object edits: [p]'s needs row, the need rate in loads [q]. *)
let add_need t p q k =
  let r = p.needs in
  let pos = search r k min_int in
  if at r pos k then r.s.aux.(pos) <- r.s.aux.(pos) + 1
  else begin
    q.(need_rate_) <- q.(need_rate_) +. t.rate.(k);
    ignore (insert r pos k 1)
  end

let remove_need t p q k =
  let r = p.needs in
  let pos = search r k min_int in
  if r.s.aux.(pos) > 1 then r.s.aux.(pos) <- r.s.aux.(pos) - 1
  else begin
    delete r pos;
    q.(need_rate_) <-
      (if r.len = 0 then 0.0 else q.(need_rate_) -. t.rate.(k))
  end

let probe_need t p q k =
  if not (has p.needs k) then q.(need_rate_) <- q.(need_rate_) +. t.rate.(k)

(* Adds [w] to the scratch delta towards [v]. *)
let[@inline] add_delta t v w =
  let j = ref 0 in
  while !j < t.pn && t.pv.(!j) < v do incr j done;
  if not (!j < t.pn && t.pv.(!j) = v) then begin
    if t.pn = Array.length t.pv then begin
      t.pv <- extend t.pv (2 * t.pn) 0;
      t.pw <- extend t.pw (2 * t.pn) 0.0
    end;
    for k = t.pn downto !j + 1 do
      t.pv.(k) <- t.pv.(k - 1);
      t.pw.(k) <- t.pw.(k - 1)
    done;
    t.pv.(!j) <- v;
    t.pw.(!j) <- 0.0;
    t.pn <- t.pn + 1
  end;
  t.pw.(!j) <- t.pw.(!j) +. w

(* Operator [i] joins ([d = 1]) or leaves ([d = -1]) processor [u] with
   state [p]: every load moves by the operator's contribution, in the
   same order either way.  The loads land in [q] — [p]'s own, or the
   [would] scratch of a probe, for which crossing edges become pair-flow
   deltas instead of flow-row edits.  On a leave, [i] is still hosted
   on [u]. *)

(* [i] as the consumer of producer [j]. *)
let consume t u p q i d j =
  let v = t.host.(j) and sign = float_of_int d in
  let out = t.output.(j) and r = rate t i in
  if v = u then
    (* the edge turns internal (or crossing again): [i] leaves (or
       re-enters) [j]'s unassigned consumers, on [u]'s comm_out *)
    q.(comm_out_) <- q.(comm_out_) -. (sign *. (out *. r))
  else begin
    (* the stream j -> u moves between the rate of [c], its fastest
       other consumer on [u], and the max of that and [r] *)
    let c = if t.unshared then -1 else top t j u ~skip:i in
    let grows = c < 0 || r > rate t c in
    let w =
      if c < 0 then sign *. (out *. r)
      else if grows then sign *. ((out *. r) -. (out *. rate t c))
      else 0.0
    in
    if grows then q.(comm_in_) <- q.(comm_in_) +. w;
    if v >= 0 then
      if q == p.loads then begin
        edge_flow t ~src:v ~dst:u w d;
        if c >= 0 then begin
          (* [j]'s host: [i] leaves (re-enters) its unassigned consumers
             and the stream moves by [w]; with no other consumer on [u]
             the two cancel, so nothing moves *)
          let m = if r < rate t c then r else rate t c in
          let l = t.procs.(v).loads in
          l.(comm_out_) <- l.(comm_out_) -. (sign *. (out *. m))
        end
      end
      else if grows then add_delta t v w
  end

(* [i] as the producer of the consumer at position [k] of its row. *)
let produce t u p q i d k =
  let c = t.g.Graph.cons.(k) in
  let w = t.host.(c) and sign = float_of_int d in
  let out = t.output.(i) in
  if w < 0 then q.(comm_out_) <- q.(comm_out_) +. (sign *. (out *. rate t c))
  else begin
    (* the stream i -> w, charged at its first consumer there *)
    let first = t.unshared || not (hosted_before t i w k) in
    let f =
      if not first then 0.0
      else if t.unshared then sign *. (out *. rate t c)
      else sign *. (out *. rate t (top t i w ~skip:(-1)))
    in
    if w = u then
      (* the stream turns internal (or crossing again) *)
      q.(comm_in_) <- q.(comm_in_) -. f
    else begin
      q.(comm_out_) <- q.(comm_out_) +. f;
      if q == p.loads then edge_flow t ~src:u ~dst:w f d
      else if first then add_delta t w f
    end
  end

let shift t u p q i d =
  q.(compute_) <- q.(compute_) +. (float_of_int d *. (rate t i *. t.work.(i)));
  let { Graph.prod_start; prod; cons_start; _ } = t.g in
  for x = prod_start.(i) to prod_start.(i + 1) - 1 do
    let j = prod.(x) in
    if not (Graph.read_before t.g i j (x - prod_start.(i))) then
      consume t u p q i d j
  done;
  for k = cons_start.(i) to cons_start.(i + 1) - 1 do
    produce t u p q i d k
  done;
  iter_leaves
    (if q != p.loads then probe_need else if d > 0 then add_need else remove_need)
    t p q i

let add_operator t u i =
  if t.host.(i) >= 0 then
    invalid_arg "Ledger.add_operator: operator already assigned";
  check_live t u;
  Obs.prof_enter "ledger.add_op";
  let p = materialize t u in
  shift t u p p.loads i 1;
  ignore (insert p.members (search p.members i min_int) i 0);
  p.ops_fresh <- false;
  t.host.(i) <- u;
  bump t u;
  Obs.prof_exit ()

(* Everything [remove_operator] does except dropping [i] from the member
   row, which keeps [remaining] operators: bulk removals clear the row
   once instead of shifting it per operator. *)
let detach t u i ~remaining =
  Obs.prof_enter "ledger.remove_op";
  let p = t.procs.(u) in
  shift t u p p.loads i (-1);
  t.host.(i) <- -1;
  if remaining = 0 then begin
    (* Exact reset: an empty group carries exactly zero load, so any
       accumulated float drift dies here. *)
    p.loads.(compute_) <- 0.0;
    p.loads.(comm_in_) <- 0.0;
    p.loads.(comm_out_) <- 0.0
  end;
  bump t u;
  Obs.prof_exit ()

let remove_operator t u i =
  check_live t u;
  if t.host.(i) <> u then
    invalid_arg "Ledger.remove_operator: operator not on this processor";
  let p = t.procs.(u) in
  delete p.members (search p.members i min_int);
  p.ops_fresh <- false;
  detach t u i ~remaining:p.members.len

(* Detaches every member, ascending, and empties the row. *)
let detach_all t u =
  let m = t.procs.(u).members in
  let n = m.len in
  if n > 0 then begin
    m.len <- 0;
    t.procs.(u).ops_fresh <- false
  end;
  for j = 0 to n - 1 do
    detach t u m.s.key.(m.off + j) ~remaining:(n - 1 - j)
  done

(* ------------------------------------------------------------------ *)
(* Download-plan deltas                                                *)

let valid_server t l = l >= 0 && l < Array.length t.card_load

(* Adds ([d = 1]) or removes ([d = -1]) the plan entry (k, l); a no-op
   when it is already present (resp. absent): exact duplicates are
   collapsed, mirroring Alloc.  Loads reset to exact zero with their
   entry counts. *)
let edit_download t u k l d =
  check_live t u;
  Obs.prof_enter (if d > 0 then "ledger.add_download" else "ledger.remove_download");
  let p = if d > 0 then materialize t u else t.procs.(u) in
  let pos = search p.dls k l in
  let present = at p.dls pos k && t.ints.aux.(pos) = l in
  if present <> (d > 0) then begin
    (* an object type outside the catalog loads nothing (Not_held) *)
    let rate =
      if k >= 0 && k < Array.length t.rate then float_of_int d *. t.rate.(k) else 0.0
    in
    if d > 0 then ignore (insert p.dls pos k l) else delete p.dls pos;
    p.loads.(dl_rate_) <-
      (if p.dls.len = 0 then 0.0 else p.loads.(dl_rate_) +. rate);
    if valid_server t l then begin
      t.card_entries.(l) <- t.card_entries.(l) + d;
      t.card_load.(l) <-
        (if t.card_entries.(l) = 0 then 0.0 else t.card_load.(l) +. rate);
      p.link_entries.(l) <- p.link_entries.(l) + d;
      p.loads.(link_ + l) <-
        (if p.link_entries.(l) <= 0 then 0.0 else p.loads.(link_ + l) +. rate)
    end;
    bump t u
  end;
  Obs.prof_exit ()

let add_download t u ~obj ~server = edit_download t u obj server 1
let remove_download t u ~obj ~server = edit_download t u obj server (-1)

let remove_proc t u =
  check_live t u;
  detach_all t u;
  let p = t.procs.(u) in
  let dls = p.dls in
  while dls.len > 0 do
    remove_download t u ~obj:t.ints.key.(dls.off) ~server:t.ints.aux.(dls.off)
  done;
  if p != t.empty then List.iter release [ p.members; p.needs; p.dls; p.flows ];
  Arena.free t.arena u;
  t.procs.(u) <- t.empty

let merge t ~winner ~loser =
  if winner = loser then invalid_arg "Ledger.merge: same processor";
  check_live t loser;
  Obs.prof_enter "ledger.merge";
  let moved = operators_of t loser in
  remove_proc t loser;
  List.iter (fun i -> add_operator t winner i) moved;
  Obs.prof_exit ()

(* Everything a probe or commit reads, serialized: each operator's host,
   then per live processor in id order its config, loads, link entries
   and rows (need counts, download plan, flows with their edge counts
   and both weights; members are the hosts), then the server cards.
   Processor ids are written as their rank among the live ones. *)
let state_key t =
  let live = Arena.live_ids t.arena in
  let rank = Array.make (Array.length t.procs) (-1) in
  List.iteri (fun r u -> rank.(u) <- r) live;
  let b = Buffer.create 4096 in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let row r ~key =
    int r.len;
    for p = r.off to r.off + r.len - 1 do
      int (key r.s.key.(p));
      int r.s.aux.(p)
    done
  in
  Array.iter (fun u -> int (if u < 0 then -1 else rank.(u))) t.host;
  List.iter
    (fun u ->
      let c = t.configs.(u) and p = t.procs.(u) in
      List.iter float
        [ c.cpu.speed; c.cpu.cpu_cost; c.nic.bandwidth; c.nic.nic_cost ];
      Array.iter float p.loads;
      Array.iter int p.link_entries;
      row p.needs ~key:Fun.id;
      row p.dls ~key:Fun.id;
      row p.flows ~key:(fun v -> rank.(v));
      for q = p.flows.off to p.flows.off + p.flows.len - 1 do
        float p.flows.s.fa.(q);
        float p.flows.s.fb.(q)
      done)
    live;
  Array.iter float t.card_load;
  Array.iter int t.card_entries;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Demand queries and probes                                           *)

let demand_of l =
  { Demand.compute = l.(compute_); download = l.(need_rate_);
    comm_in = l.(comm_in_); comm_out = l.(comm_out_) }

let demand t u = demand_of (proc t u).loads

let compute_load t u = (proc t u).loads.(compute_)

let tolerance = 1e-9

(* The compute half of [Demand.fits] on [u]'s configuration, the same
   comparison, computed here so the load never leaves the module as a
   boxed float. *)
let[@inline] fits_cpu t u load =
  load <= (t.configs.(u).Catalog.cpu.Catalog.speed *. (1.0 +. tolerance)) +. tolerance

(* [probe_add] adds [1.0 *. (rate *. work)], the same float as
   [rate *. work]; [probe_merge] adds the two loads. *)
let add_fits_cpu t u i =
  fits_cpu t u ((proc t u).loads.(compute_) +. (rate t i *. t.work.(i)))

let merge_fits_cpu t ~winner ~loser =
  fits_cpu t winner
    ((proc t winner).loads.(compute_) +. (proc t loser).loads.(compute_))

let card_load t l =
  if not (valid_server t l) then invalid_arg "Ledger.card_load: bad server";
  t.card_load.(l)

let probe_add t u i =
  if t.host.(i) >= 0 then
    invalid_arg "Ledger.probe_add: operator already assigned";
  check_live t u;
  Obs.prof_enter "ledger.probe_add";
  let p = t.procs.(u) and q = t.would in
  for x = compute_ to need_rate_ do
    q.(x) <- p.loads.(x)
  done;
  t.pn <- 0;
  shift t u p q i 1;
  let pair_flows = ref [] in
  for j = t.pn - 1 downto 0 do
    let v = t.pv.(j) in
    pair_flows := (v, pair_flow t u v +. t.pw.(j)) :: !pair_flows
  done;
  let r = { demand = demand_of q; pair_flows = !pair_flows } in
  Obs.prof_exit ();
  r

(* A producer outside the pair that streams to both winner and loser:
   the merged group receives one stream, at the faster of the two rates,
   so the slower one leaves comm_in and the pair flow towards the
   producer's host.  Collected from the loser's members into the probe
   scratch: the comm_in change into [would]'s comm_in, the pair-flow
   changes as deltas.  An unshared graph (every tree) has none. *)
let overlap_from t ~winner ~loser c =
  let { Graph.prod_start; prod; _ } = t.g in
  for x = prod_start.(c) to prod_start.(c + 1) - 1 do
    let j = prod.(x) in
    let v = t.host.(j) in
    if
      v <> winner && v <> loser
      && (not (Graph.read_before t.g c j (x - prod_start.(c))))
      && top t j loser ~skip:(-1) = c
    then begin
      let cw = top t j winner ~skip:(-1) in
      if cw >= 0 then begin
        let m =
          t.output.(j) *. (if rate t cw < rate t c then rate t cw else rate t c)
        in
        t.would.(comm_in_) <- t.would.(comm_in_) -. m;
        if v >= 0 then add_delta t v (-.m)
      end
    end
  done

let overlap t ~winner ~loser =
  t.would.(comm_in_) <- 0.0;
  t.pn <- 0;
  if not t.unshared then begin
    let m = t.procs.(loser).members in
    for y = m.off to m.off + m.len - 1 do
      overlap_from t ~winner ~loser m.s.key.(y)
    done
  end

let probe_merge t ~winner ~loser =
  if winner = loser then invalid_arg "Ledger.probe_merge: same processor";
  let pw = proc t winner and pl = proc t loser in
  Obs.prof_enter "ledger.probe_merge";
  let wf = pw.flows and lf = pl.flows and s = t.floats in
  let x = search wf loser min_int in
  let linked = at wf x loser in
  let out_wl = if linked then s.fa.(x) else 0.0 in
  let in_wl = if linked then s.fb.(x) else 0.0 in
  (* Edges between winner and loser become internal: subtract each
     direction from the side that counted it. *)
  let comm_in =
    pw.loads.(comm_in_) -. in_wl +. (pl.loads.(comm_in_) -. out_wl)
  in
  overlap t ~winner ~loser;
  let comm_in = if t.unshared then comm_in else comm_in +. t.would.(comm_in_) in
  let comm_out =
    pw.loads.(comm_out_) -. out_wl +. (pl.loads.(comm_out_) -. in_wl)
  in
  (* Ascending-key iteration keeps the float sums and the pair_flows
     order independent of construction history — a probe must hash
     identically across runs and across ledgers that reached the same
     state differently. *)
  let download = ref pw.loads.(need_rate_) and ln = pl.needs in
  for y = ln.off to ln.off + ln.len - 1 do
    let k = t.ints.key.(y) in
    if not (has pw.needs k) then download := !download +. t.rate.(k)
  done;
  (* Merged totals towards every third party: a descending merge of the
     two sorted rows, consed into an ascending list. *)
  let pair_flows = ref [] in
  let a = ref (wf.off + wf.len - 1) and b = ref (lf.off + lf.len - 1) in
  let o = ref (t.pn - 1) in
  while !a >= wf.off || !b >= lf.off do
    let ka = if !a >= wf.off then s.key.(!a) else -1 in
    let kb = if !b >= lf.off then s.key.(!b) else -1 in
    let v = max ka kb in
    let total = ref 0.0 in
    if ka = v then begin
      total := 0.0 +. (s.fa.(!a) +. s.fb.(!a));
      decr a
    end;
    if kb = v then begin
      total := !total +. (s.fa.(!b) +. s.fb.(!b));
      decr b
    end;
    if !o >= 0 && t.pv.(!o) = v then begin
      total := !total +. t.pw.(!o);
      decr o
    end;
    if v <> winner && v <> loser then pair_flows := (v, !total) :: !pair_flows
  done;
  let r =
    {
      demand =
        {
          Demand.compute = pw.loads.(compute_) +. pl.loads.(compute_);
          download = !download;
          comm_in;
          comm_out;
        };
      pair_flows = !pair_flows;
    }
  in
  Obs.prof_exit ();
  r

(* ------------------------------------------------------------------ *)
(* Violations                                                          *)

let exceeds load capacity = load > (capacity *. (1.0 +. tolerance)) +. tolerance

(* Violations anchored at one processor: structural download checks plus
   constraints (1), (2) and (4) for its own links.  O(degree of the
   processor's state). *)
let proc_violations t u acc =
  let servers = t.platform.Platform.servers in
  let add v = acc := v :: !acc in
  let p = t.procs.(u) in
  let dls = p.dls and key = t.ints.key and aux = t.ints.aux in
  let first = dls.off and last = dls.off + dls.len - 1 in
  for j = p.needs.off to p.needs.off + p.needs.len - 1 do
    let k = key.(j) in
    if not (has dls k) then
      add (Check.Missing_download { proc = u; object_type = k })
  done;
  for j = first to last do
    let k = key.(j) and l = aux.(j) in
    if not (has p.needs k) then
      add (Check.Extraneous_download { proc = u; object_type = k });
    if
      (not (valid_server t l))
      || k < 0
      || k >= Servers.n_object_types servers
      || not (Servers.holds servers l k)
    then
      add (Check.Not_held { proc = u; object_type = k; server = l })
  done;
  for j = first + 1 to last do
    let k = key.(j) in
    if k = key.(j - 1) && (j = first + 1 || key.(j - 2) <> k) then
      add (Check.Duplicate_download { proc = u; object_type = k })
  done;
  let config = t.configs.(u) in
  let speed = config.Catalog.cpu.Catalog.speed in
  if exceeds p.loads.(compute_) speed then
    add (Check.Compute_overload { proc = u; load = p.loads.(compute_); capacity = speed });
  let nic = p.loads.(dl_rate_) +. p.loads.(comm_in_) +. p.loads.(comm_out_) in
  let bandwidth = config.Catalog.nic.Catalog.bandwidth in
  if exceeds nic bandwidth then
    add (Check.Nic_overload { proc = u; load = nic; capacity = bandwidth });
  (* One report per link, at the server's first entry in the plan. *)
  for j = first to last do
    let l = aux.(j) in
    let seen = ref false in
    for y = first to j - 1 do
      if aux.(y) = l then seen := true
    done;
    if (not !seen) && valid_server t l && p.link_entries.(l) > 0 then begin
      let load = p.loads.(link_ + l) in
      let capacity = t.platform.Platform.server_link in
      if exceeds load capacity then
        add (Check.Server_link_overload { server = l; proc = u; load; capacity })
    end
  done

let server_card_violations t servers_touched acc =
  List.iter
    (fun l ->
      let capacity = Servers.card t.platform.Platform.servers l in
      if exceeds t.card_load.(l) capacity then
        acc :=
          Check.Server_card_overload
            { server = l; load = t.card_load.(l); capacity }
          :: !acc)
    servers_touched

(* Constraint (5) for every pair with an endpoint in the ascending list
   [us], each pair once: from its smaller endpoint when that endpoint is
   in [us], else from the larger one. *)
let pair_violations t us acc =
  List.iter
    (fun u ->
      if mem_proc t u then begin
        let r = t.procs.(u).flows and s = t.floats in
        for j = r.off to r.off + r.len - 1 do
          let v = s.key.(j) in
          if u < v || not (List.mem v us) then begin
            let load = s.fa.(j) +. s.fb.(j) in
            let capacity = t.platform.Platform.proc_link in
            if exceeds load capacity then
              acc :=
                Check.Proc_link_overload
                  { proc_a = min u v; proc_b = max u v; load; capacity }
                :: !acc
          end
        done
      end)
    us
[@@lint.allow "p3"]

let violations t =
  let acc = ref [] in
  for i = 0 to Graph.n_nodes t.g - 1 do
    if t.host.(i) < 0 then acc := Check.Unassigned_operator i :: !acc
  done;
  let ids = proc_ids t in
  List.iter (fun u -> proc_violations t u acc) ids;
  server_card_violations t (List.init (Array.length t.card_load) Fun.id) acc;
  pair_violations t ids acc;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)

let of_alloc g platform alloc =
  Obs.prof_enter "ledger.of_alloc";
  let t = create g platform in
  for u = 0 to Alloc.n_procs alloc - 1 do
    let id = add_proc t (Alloc.proc alloc u).Alloc.config in
    assert (id = u)
  done;
  for u = 0 to Alloc.n_procs alloc - 1 do
    List.iter (fun i -> add_operator t u i) (Alloc.operators_of alloc u)
  done;
  for u = 0 to Alloc.n_procs alloc - 1 do
    List.iter
      (fun (k, l) -> add_download t u ~obj:k ~server:l)
      (Alloc.downloads_of alloc u)
  done;
  Obs.prof_exit ();
  t

let to_alloc t =
  let proc u =
    let p = t.procs.(u) in
    { Alloc.config = t.configs.(u); operators = keys p.members;
      downloads = downloads_list p }
  in
  Alloc.make (Array.of_list (List.map proc (proc_ids t)))
